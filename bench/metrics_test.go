package main

import (
	"regexp"
	"testing"
)

// BENCHMARK.json at the repository root repeats the metric catalogue and
// the workload list; the harness and the file must not drift apart, and
// the file must stay inside the limits the benchmark driver enforces.
func TestBenchmarkFileMatchesTheCatalogue(t *testing.T) {
	bench, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, bench.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(bench.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness has %d", len(bench.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		got := bench.EndToEnd[i]
		if got.metricDef != m {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, got.metricDef, m)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, got.Bound)
		}
		hasSetup = hasSetup || (m == metricDef{"setup_s", "s", "lower"})
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bench.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness has %d (limit 128)", len(bench.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if bench.PerLayer[i] != m {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, bench.PerLayer[i], m)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
}
