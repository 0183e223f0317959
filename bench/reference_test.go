package main

import (
	"slices"
	"testing"

	"accelstream"
	"accelstream/internal/core"
	"accelstream/internal/workload"
)

// The reference join must agree with core.Oracle — the repository's own
// definition of a correct join — on every key regime the workloads use,
// with windows small enough to expire many times over.
func TestRefJoinMatchesOracle(t *testing.T) {
	cases := []struct {
		name   string
		dist   workload.KeyDist
		domain int
		window int
	}{
		{"uniform-dense", workload.Uniform, 16, 32},
		{"uniform-sparse", workload.Uniform, 512, 64},
		{"disjoint", workload.Disjoint, 32, 16},
		{"window-1", workload.Uniform, 4, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := workload.NewGenerator(workload.Spec{Seed: 11, Dist: c.dist, KeyDomain: c.domain})
			if err != nil {
				t.Fatal(err)
			}
			inputs := g.Take(2000)
			// Sprinkle marker pairs through the stream.
			for m := 0; m < 20; m++ {
				inputs[100*m+10] = accelstream.Input{Side: accelstream.SideS, Tuple: accelstream.Tuple{Key: markerBase + uint32(m)}}
				inputs[100*m+12] = accelstream.Input{Side: accelstream.SideR, Tuple: accelstream.Tuple{Key: markerBase + uint32(m)}}
			}

			oracle, err := core.NewOracle(c.window, accelstream.EquiJoinOnKey())
			if err != nil {
				t.Fatal(err)
			}
			var got []uint64
			ref := newRefJoin(c.window, 1<<10, &got)
			var results []accelstream.Result
			for i, in := range inputs {
				want, err := oracle.Push(in.Side, in.Tuple)
				if err != nil {
					t.Fatal(err)
				}
				before := len(got)
				n, err := ref.push(in)
				if err != nil {
					t.Fatal(err)
				}
				if n != len(want) || len(got)-before != n {
					t.Fatalf("input %d: reference counts %d results (%d pairs), oracle %d", i, n, len(got)-before, len(want))
				}
			}
			for _, id := range got {
				results = append(results, accelstream.Result{
					R: accelstream.Tuple{Seq: id >> 32}, S: accelstream.Tuple{Seq: id & 0xFFFFFFFF},
				})
			}
			if err := core.VerifyExactlyOnce(c.window, accelstream.EquiJoinOnKey(), inputs, results); err != nil {
				t.Fatal(err)
			}
			// The count-only form must agree with the pair-listing form.
			count := newRefJoin(c.window, 1<<10, nil)
			total, err := count.pushAll(inputs)
			if err != nil {
				t.Fatal(err)
			}
			if total != uint64(len(got)) {
				t.Errorf("count-only reference found %d results, pair-listing %d", total, len(got))
			}
			if !slices.IsSorted(got) {
				slices.Sort(got)
			}
			if dup := slices.Compact(slices.Clone(got)); len(dup) != len(got) {
				t.Errorf("reference emitted %d duplicate pairings", len(got)-len(dup))
			}
		})
	}
}

func TestRefJoinRejectsKeysOutsideItsRange(t *testing.T) {
	ref := newRefJoin(8, 16, nil)
	if _, err := ref.push(accelstream.Input{Side: accelstream.SideR, Tuple: accelstream.Tuple{Key: 16}}); err == nil {
		t.Error("a key at the stride was accepted")
	}
	if _, err := ref.push(accelstream.Input{Side: accelstream.SideR, Tuple: accelstream.Tuple{Key: markerBase + 15}}); err != nil {
		t.Errorf("a marker key inside the stride was rejected: %v", err)
	}
}

// The selectivity reported as client.results_per_tuple is a count: the same
// seed must give the same value to the last digit, and it must be the
// workload's designed results per tuple.
func TestSteadyResultsPerTupleRepeatsPerSeed(t *testing.T) {
	for _, w := range workloads {
		var got [2]float64
		for i := range got {
			in, err := makeInputs(w, 9)
			if err != nil {
				t.Fatal(err)
			}
			if got[i], err = in.steadyResultsPerTuple(); err != nil {
				t.Fatal(err)
			}
		}
		if got[0] != got[1] {
			t.Errorf("%s: %v then %v for the same seed", w.name, got[0], got[1])
		}
		if want := w.resultsPerTuple(); got[0] < 0.9*want || got[0] > 1.1*want {
			t.Errorf("%s: %v results per tuple, designed for about %v", w.name, got[0], want)
		}
	}
}
