package softjoin

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// runEngine pushes inputs through a fresh engine and returns what collect
// gathered from it; collect must drain the engine's output to its close.
func runEngine(t *testing.T, cfg Config, inputs []core.Input, collect func(*UniFlow) []stream.Result) []stream.Result {
	t.Helper()
	e, err := NewUniFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var got []stream.Result
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		got = collect(e)
	}()
	for _, in := range inputs {
		e.Push(in.Side, in.Tuple)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return got
}

func viaBatches(e *UniFlow) []stream.Result {
	var got []stream.Result
	for b := range e.Batches() {
		got = append(got, b.Results...)
		b.Release()
	}
	return got
}

func viaResults(e *UniFlow) []stream.Result {
	var got []stream.Result
	for r := range e.Results() {
		got = append(got, r)
	}
	return got
}

func sortedPairIDs(results []stream.Result) []uint64 {
	ids := make([]uint64, len(results))
	for i, r := range results {
		ids[i] = r.PairID()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestBatchesMatchOracleAndResults: for both probe kernels and both
// gathering modes, what the engine delivers as whole batches is the
// oracle's multiset, in ordered mode in release order, and is the same
// multiset the per-result Results() adaptor yields for the same input —
// one engine path, two views of it.
func TestBatchesMatchOracleAndResults(t *testing.T) {
	const window, tuples = 64, 3000
	for _, kernel := range []stream.ProbeKernel{stream.KernelHash, stream.KernelScan} {
		for _, ordered := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/ordered=%v", kernel, ordered), func(t *testing.T) {
				inputs := randomWorkload(rand.New(rand.NewSource(41)), tuples, 24)
				cfg := Config{NumCores: 4, WindowSize: window, BatchSize: 32, OrderedResults: ordered, ProbeKernel: kernel}
				batched := runEngine(t, cfg, inputs, viaBatches)
				unrolled := runEngine(t, cfg, inputs, viaResults)

				if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, batched); err != nil {
					t.Fatalf("via Batches: %v", err)
				}
				a, b := sortedPairIDs(batched), sortedPairIDs(unrolled)
				if len(a) != len(b) {
					t.Fatalf("Batches delivered %d results, Results %d", len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("Batches and Results diverge at sorted pairing %d: %x vs %x", i, a[i], b[i])
					}
				}
				if !ordered {
					return
				}
				idxR, idxS := globalArrivalIndex(inputs)
				for name, got := range map[string][]stream.Result{"Batches": batched, "Results": unrolled} {
					last := -1
					for i, r := range got {
						gi := max(idxR[r.R.Seq], idxS[r.S.Seq])
						if gi < last {
							t.Fatalf("via %s: result %d released out of order: probing arrival %d after %d", name, i, gi, last)
						}
						last = gi
					}
				}
			})
		}
	}
}

// TestScanKernelTailAndWrapOracle pins the scan kernel's block edges at the
// engine level: sub-windows of 1, 63, 64, 65 and 127 words (no full block,
// one short of a block, exactly one, a one-word tail, a long tail), each
// filled twice over so the ring wraps and both word segments are live, under a sparse condition (level 1 dismisses most blocks), a
// dense one (every lane hits) and a band on values that sit on the lane
// arithmetic's borrow corners — relaxed and ordered, through Batches() and
// through Results(), always equal to the single-process oracle.
func TestScanKernelTailAndWrapOracle(t *testing.T) {
	const cores = 2
	corners := []uint32{0, 1, 1<<31 - 1, 1 << 31, 1<<32 - 1}
	conds := []struct {
		name string
		cond stream.JoinCondition
	}{
		{"sparse-eq", stream.EquiJoinOnKey()},
		{"dense-ne", stream.JoinCondition{LHS: stream.FieldKey, RHS: stream.FieldKey, Cmp: stream.CmpNE}},
		{"band-lt-val", stream.JoinCondition{LHS: stream.FieldVal, RHS: stream.FieldVal, Cmp: stream.CmpLT}},
	}
	for _, sub := range []int{1, 63, 64, 65, 127} {
		window := cores * sub
		rng := rand.New(rand.NewSource(int64(sub)))
		inputs := randomWorkload(rng, 4*window+100, 97)
		for i := range inputs {
			inputs[i].Tuple.Val = corners[rng.Intn(len(corners))] + uint32(rng.Intn(3)) - 1
		}
		for _, tc := range conds {
			for _, ordered := range []bool{false, true} {
				for view, collect := range map[string]func(*UniFlow) []stream.Result{"Batches": viaBatches, "Results": viaResults} {
					t.Run(fmt.Sprintf("sub=%d/%s/ordered=%v/%s", sub, tc.name, ordered, view), func(t *testing.T) {
						cfg := Config{NumCores: cores, WindowSize: window, BatchSize: 32, Condition: tc.cond,
							OrderedResults: ordered, ProbeKernel: stream.KernelScan}
						got := runEngine(t, cfg, inputs, collect)
						if err := core.VerifyExactlyOnce(window, tc.cond, inputs, got); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

// TestQuiesceWithSlowBatchConsumer: the quiesce barrier counts a result
// vector only once it has been handed into the output channel, so with a
// consumer slower than the cores — vectors backing up until the cores
// block on the send — Quiesce still terminates, ResultsEmitted is exact
// at every boundary, and nothing is lost or duplicated.
func TestQuiesceWithSlowBatchConsumer(t *testing.T) {
	const window, total, step = 32, 1200, 200
	for _, ordered := range []bool{false, true} {
		t.Run(fmt.Sprintf("ordered=%v", ordered), func(t *testing.T) {
			workload := randomWorkload(rand.New(rand.NewSource(3)), total, 16)
			// Tiny batches and a shallow channel: dozens of vectors per
			// step against a handful of output slots.
			e, err := NewUniFlow(Config{NumCores: 2, WindowSize: window, BatchSize: 4, ChannelDepth: 1, OrderedResults: ordered})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			var received atomic.Uint64
			var got []stream.Result
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := range e.Batches() {
					time.Sleep(50 * time.Microsecond)
					got = append(got, b.Results...)
					received.Add(uint64(len(b.Results)))
					b.Release()
				}
			}()
			oracle, err := core.NewOracle(window, stream.EquiJoinOnKey())
			if err != nil {
				t.Fatal(err)
			}
			var want uint64
			for off := 0; off < total; off += step {
				for _, in := range workload[off : off+step] {
					e.Push(in.Side, in.Tuple)
					res, err := oracle.Push(in.Side, in.Tuple)
					if err != nil {
						t.Fatal(err)
					}
					want += uint64(len(res))
				}
				if err := e.Quiesce(); err != nil {
					t.Fatal(err)
				}
				if n := e.ResultsEmitted(); n != want {
					t.Fatalf("after %d tuples: ResultsEmitted %d, oracle has %d", off+step, n, want)
				}
				if n := received.Load(); n > want {
					t.Fatalf("after %d tuples: consumer holds %d results, only %d exist", off+step, n, want)
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), workload, got); err != nil {
				t.Fatal(err)
			}
		})
	}
}
