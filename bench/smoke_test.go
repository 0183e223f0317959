package main

import (
	"strings"
	"testing"
	"time"
)

// correctness drops the validity breaches a loaded test machine can cause
// (a late pacer) and keeps what says the service answered wrongly.
func correctness(problems []string) []string {
	var out []string
	for _, p := range problems {
		if !strings.HasPrefix(p, "invalid run") {
			out = append(out, p)
		}
	}
	return out
}

// TestSmoke runs every workload end to end against in-process servers,
// with phases of a fraction of a second: the same driver, reference join
// and metric derivation as a real run, so that a change to the server,
// shard or wire API breaks the tests at once instead of the benchmark
// weeks later.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := makeInputs(w, 3)
			if err != nil {
				t.Fatal(err)
			}
			r, err := runE2E(in, nil, nil, plan{
				setups: 1, verify: true, warm: 20 * time.Millisecond,
				tput: 250 * time.Millisecond, lat: 250 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if bad := correctness(r.problems); len(bad) > 0 {
				t.Fatalf("failed operations: %v", bad)
			}
			if r.markers.planted == 0 || r.markers.matched != r.markers.planted {
				t.Errorf("markers: %+v", r.markers)
			}
			if r.received != r.expected {
				t.Errorf("received %d results, reference expects %d", r.received, r.expected)
			}
			wantFanout := 1.0
			if w.sharded {
				wantFanout = shards
			}
			if r.probeFanout != wantFanout {
				t.Errorf("probe fan-out %v, want %v", r.probeFanout, wantFanout)
			}
			m := e2eMetrics(r)
			for _, d := range endToEnd {
				// No daemons were spawned, so there is no RSS to add up, and
				// /proc counts CPU in ticks longer than a smoke slice.
				v, ok := m[d.Name]
				if !ok || (v <= 0 && d.Name != "peak_rss_mb" && d.Name != "cpu_s_per_mtuple") {
					t.Errorf("%s = %v", d.Name, v)
				}
			}
		})
	}
}

// TestSmokeTraced covers the traced topology — instrumented listener and
// engine decorator in front of every shard — and the span arithmetic.
func TestSmokeTraced(t *testing.T) {
	w, err := findWorkload("sharded_mixed")
	if err != nil {
		t.Fatal(err)
	}
	in, err := makeInputs(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := plan{setups: 1, warm: 20 * time.Millisecond, tput: 200 * time.Millisecond, lat: 300 * time.Millisecond}
	tr := newTracer(markerCapacity(w, p.lat))
	r, err := runE2E(in, nil, tr, p)
	if err != nil {
		t.Fatal(err)
	}
	if bad := correctness(r.problems); len(bad) > 0 {
		t.Fatalf("failed operations: %v", bad)
	}
	spans := tr.markerSpans()
	if len(spans) != 5*r.markers.matched {
		t.Fatalf("%d spans for %d matched markers, want five each", len(spans), r.markers.matched)
	}
	for i := 0; i < len(spans); i += 5 {
		root := spans[i]
		var sum float64
		for j, child := range spans[i+1 : i+5] {
			if child.Parent != i || child.Marker != root.Marker || child.Name != stages[j] {
				t.Fatalf("span %d: %+v is not stage %s of root %d", i+1+j, child, stages[j], i)
			}
			if child.End < child.Start {
				t.Fatalf("span %+v runs backwards", child)
			}
			sum += child.End - child.Start
		}
		if total := root.End - root.Start; sum < total*0.999 || sum > total*1.001 {
			t.Fatalf("marker %d: stages add up to %.1f us, the marker took %.1f us", root.Marker, sum, total)
		}
	}
	total, perStage := stageBreakdown(spans, 40, 60)
	var sum float64
	for _, v := range perStage {
		sum += v
	}
	if total <= 0 || sum < total*0.999 || sum > total*1.001 {
		t.Errorf("p50 band: stages add up to %.1f us of %.1f us", sum, total)
	}
	if r.trace.connReadWait <= 0 || r.trace.enginePush <= 0 {
		t.Errorf("trace shares = %+v, want the connection and engine counters to have moved", r.trace)
	}
}

// TestSmokeLayers runs every isolated layer timer briefly on the
// workloads that between them reach every layer.
func TestSmokeLayers(t *testing.T) {
	for _, name := range []string{"probe_scan", "sharded_mixed"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		in, err := makeInputs(w, 5)
		if err != nil {
			t.Fatal(err)
		}
		m, err := layerTimers(in, 20*time.Millisecond, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		onPath := func(metric string) bool {
			switch {
			case strings.Contains(metric, "result"):
				return w.resultsPerTuple() > 0
			case strings.HasPrefix(metric, "shard."):
				return w.sharded
			}
			return true
		}
		for _, d := range perLayer {
			if !strings.HasPrefix(d.Name, "wire.") && !strings.HasPrefix(d.Name, "stream.") &&
				!strings.HasPrefix(d.Name, "softjoin.") && !strings.HasPrefix(d.Name, "admission.") &&
				!strings.HasPrefix(d.Name, "checkpoint.") && d.Name != "server.null_engine_ns_per_tuple" &&
				d.Name != "server.result_path_ns_per_result" && d.Name != "shard.router_ns_per_tuple" &&
				d.Name != "harness.loopback_mb_per_s" {
				continue
			}
			v, ok := m[d.Name]
			if !ok {
				t.Errorf("%s: %s not measured", name, d.Name)
			} else if onPath(d.Name) != (v > 0) {
				t.Errorf("%s: %s = %v, on the workload's path: %v", name, d.Name, v, onPath(d.Name))
			}
		}
	}
}
