package main

import (
	"testing"
	"time"

	"accelstream"
)

func TestMarkerBook(t *testing.T) {
	epoch := time.Now()
	b := newMarkerBook(4, epoch)
	b.plant(0, epoch.Add(1*time.Millisecond))
	b.plant(1, epoch.Add(2*time.Millisecond))
	b.plant(2, epoch) // due exactly at the epoch still counts as planted
	b.match(0, epoch.Add(1500*time.Microsecond))
	b.match(0, epoch.Add(1600*time.Microsecond)) // duplicate result
	b.match(3, epoch)                            // never planted
	b.match(9, epoch)                            // out of range
	b.match(2, epoch.Add(250*time.Microsecond))

	r := b.report()
	if r.planted != 3 || r.matched != 2 || r.lost != 1 || r.extra != 3 {
		t.Fatalf("report = %+v, want 3 planted, 2 matched, 1 lost, 3 extra", r)
	}
	if len(r.latencies) != 2 || r.latencies[0].value != 500 || r.latencies[1].value != 250 {
		t.Errorf("latencies = %+v, want 500us then 250us", r.latencies)
	}
	if r.latencies[0].at != 0.001 {
		t.Errorf("first marker placed at %v s, want its due time 0.001", r.latencies[0].at)
	}
}

// Every marker of a latency phase must meet exactly one match — its own S
// tuple — and leave the ring batches it rides on otherwise untouched.
func TestLatencyBatchPlantsOnePairPerMarker(t *testing.T) {
	for _, w := range workloads {
		// Small, but wide enough that a marker's S tuple is still resident
		// when its probe arrives at the end of the batch.
		w.window = 4 * w.batch
		w.domain = min(w.domain, w.window)
		in, err := makeInputs(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		var scratch []accelstream.Input
		probes := 0
		const batches = 40
		for j := 0; j < batches; j++ {
			batch, probe := in.latencyBatch(scratch, 3, j)
			if probe >= 0 {
				if probe != probes {
					t.Fatalf("%s: batch %d carries marker %d, want %d", w.name, j, probe, probes)
				}
				probes++
				tail := batch[len(batch)-1]
				if id, ok := isMarker(tail.Tuple.Key); !ok || id != probe || tail.Side != accelstream.SideR {
					t.Fatalf("%s: batch %d tail %+v is not marker %d's R probe", w.name, j, tail, probe)
				}
			}
			first := 0
			if probe >= 0 {
				first = 1
			}
			for i := first; i < len(batch)-first; i++ {
				if batch[i] != in.ring(3 + j)[i] {
					t.Fatalf("%s: batch %d tuple %d differs from the ring", w.name, j, i)
				}
			}
		}
		if probes != batches/w.markEvery {
			t.Errorf("%s: %d probes in %d batches, want %d", w.name, probes, batches, batches/w.markEvery)
		}
		// Count the marker results alone: replay with pairs recorded and
		// keep those whose R tuple is a marker probe.
		var pairs []uint64
		ref := newRefJoin(w.window, refStride(w), &pairs)
		rSeqIsMarker := map[uint64]bool{}
		var rSeq uint64
		for j := 0; j < batches; j++ {
			batch, _ := in.latencyBatch(scratch, 3, j)
			for _, tup := range batch {
				if tup.Side == accelstream.SideR {
					if _, ok := isMarker(tup.Tuple.Key); ok {
						rSeqIsMarker[rSeq] = true
					}
					rSeq++
				}
			}
			if _, err := ref.pushAll(batch); err != nil {
				t.Fatal(err)
			}
		}
		markerResults := 0
		for _, p := range pairs {
			if rSeqIsMarker[p>>32] {
				markerResults++
			}
		}
		if markerResults != probes {
			t.Errorf("%s: %d marker results for %d probes", w.name, markerResults, probes)
		}
	}
}
