package softjoin

import (
	"math/rand"
	"testing"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// suffixOracle returns the results a replay of the full workload produces
// strictly after the cut — the exact set a restored engine must emit when
// it continues from a checkpoint taken at the cut. The oracle emits
// results in arrival order, so the suffix is a clean slice.
func suffixOracle(t *testing.T, window int, workload []core.Input, cut int) []stream.Result {
	t.Helper()
	oracle, err := core.NewOracle(window, stream.EquiJoinOnKey())
	if err != nil {
		t.Fatal(err)
	}
	all, err := oracle.Run(workload)
	if err != nil {
		t.Fatal(err)
	}
	prefixOracle, err := core.NewOracle(window, stream.EquiJoinOnKey())
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := prefixOracle.Run(workload[:cut])
	if err != nil {
		t.Fatal(err)
	}
	return all[len(prefix):]
}

// TestKernelCheckpointRestoreContinuation is the checkpoint-restore half
// of the index-rebuild contract: snapshot a live engine mid-stream,
// install the image into fresh engines — one per probe kernel, with a
// different core count than the source — and continue the remaining
// workload. Each continuation must produce exactly the suffix results of
// an oracle replay, which under the hash kernel is only possible if
// ImportState kept the probe indexes in sync with the restored windows.
func TestKernelCheckpointRestoreContinuation(t *testing.T) {
	const (
		window = 64
		total  = 1600
		cut    = 800
	)
	rng := rand.New(rand.NewSource(41))
	workload := randomWorkload(rng, total, 40)

	src, err := NewUniFlow(Config{NumCores: 4, WindowSize: window})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Start(); err != nil {
		t.Fatal(err)
	}
	srcWG, _ := drain(src.Results())
	src.PushBatch(workload[:cut])
	image, seqR, seqS, err := src.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	srcWG.Wait()

	want := suffixOracle(t, window, workload, cut)
	for _, kernel := range []stream.ProbeKernel{stream.KernelHash, stream.KernelScan} {
		t.Run(kernel.String(), func(t *testing.T) {
			e, err := NewUniFlow(Config{
				NumCores:    2, // restore is core-count independent
				WindowSize:  window,
				BaseSeqR:    seqR,
				BaseSeqS:    seqS,
				ProbeKernel: kernel,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.ImportState(image); err != nil {
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			wg, got := drain(e.Results())
			e.PushBatch(workload[cut:])
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			if len(*got) == 0 {
				t.Fatal("vacuous continuation: no results")
			}
			if diffs := core.NewResultSet(*got).Diff(core.NewResultSet(want)); len(diffs) != 0 {
				t.Fatalf("%v continuation diverged from oracle suffix (%d diffs): %v",
					kernel, len(diffs), diffs[:min(4, len(diffs))])
			}
		})
	}
}

// TestKernelRebalanceContinuation is the shard-rebalance half: export the
// global window from an old shard layout, re-slice it onto a larger one
// under each probe kernel, continue a second workload phase broadcast to
// every new shard, and check the union of the new shards' results equals
// the oracle suffix over the global window — the N→M migration invariant,
// now also proving the restored engines' probe indexes see the imported
// tuples.
func TestKernelRebalanceContinuation(t *testing.T) {
	const (
		oldShards = 2
		newShards = 3
		global    = 60 // divisible by both layouts
		cut       = 800
		total     = 1600
	)
	rng := rand.New(rand.NewSource(43))
	workload := randomWorkload(rng, total, 40)

	var pooled []core.Input
	var seqR, seqS uint64
	for shard := 0; shard < oldShards; shard++ {
		e := runShardEngine(t, Config{
			NumCores:   2,
			WindowSize: global / oldShards,
			ShardCount: oldShards,
			ShardIndex: shard,
		}, workload[:cut])
		state, r, s, err := e.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		pooled = append(pooled, state...)
		seqR, seqS = r, s
	}

	want := suffixOracle(t, global, workload, cut)
	for _, kernel := range []stream.ProbeKernel{stream.KernelHash, stream.KernelScan} {
		t.Run(kernel.String(), func(t *testing.T) {
			var union []stream.Result
			for shard := 0; shard < newShards; shard++ {
				var slice []core.Input
				for _, in := range pooled {
					if in.Tuple.Seq%newShards == uint64(shard) {
						slice = append(slice, in)
					}
				}
				sortStateBySideSeq(slice)
				e, err := NewUniFlow(Config{
					NumCores:    2,
					WindowSize:  global / newShards,
					ShardCount:  newShards,
					ShardIndex:  shard,
					BaseSeqR:    seqR,
					BaseSeqS:    seqS,
					ProbeKernel: kernel,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := e.ImportState(slice); err != nil {
					t.Fatal(err)
				}
				if err := e.Start(); err != nil {
					t.Fatal(err)
				}
				wg, got := drain(e.Results())
				e.PushBatch(workload[cut:])
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				wg.Wait()
				union = append(union, *got...)
			}
			if len(union) == 0 {
				t.Fatal("vacuous continuation: no results")
			}
			if diffs := core.NewResultSet(union).Diff(core.NewResultSet(want)); len(diffs) != 0 {
				t.Fatalf("%v rebalanced union diverged from oracle suffix (%d diffs): %v",
					kernel, len(diffs), diffs[:min(4, len(diffs))])
			}
		})
	}
}
