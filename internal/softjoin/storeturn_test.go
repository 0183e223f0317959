package softjoin

import (
	"fmt"
	"testing"

	"accelstream/internal/core"
	"accelstream/internal/leakcheck"
	"accelstream/internal/stream"
)

// TestUniFlowRoundRobinBalance: the storage discipline balances within one
// tuple across cores.
func TestUniFlowRoundRobinBalance(t *testing.T) {
	leakcheck.Check(t)
	e, err := NewUniFlow(Config{NumCores: 8, WindowSize: 1 << 13})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	wg, _ := drain(e.Results())
	const nR, nS = 1000, 900
	for i := 0; i < nR; i++ {
		e.Push(stream.SideR, stream.Tuple{Key: uint32(i)})
	}
	for i := 0; i < nS; i++ {
		e.Push(stream.SideS, stream.Tuple{Key: 1 << 20})
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := core.VerifyRoundRobinBalance(nR, e.StoredPerCore(stream.SideR)); err != nil {
		t.Error(err)
	}
	if err := core.VerifyRoundRobinBalance(nS, e.StoredPerCore(stream.SideS)); err != nil {
		t.Error(err)
	}
	if got, want := e.Processed(), uint64((nR+nS)*8); got != want {
		t.Errorf("Processed() = %d, want %d (every core sees every tuple)", got, want)
	}
}

// TestUniFlowComparisonsPerTuple: Comparisons() stays meaningful per
// kernel. Under the scan kernel each tuple sweeps one full sub-window per
// core — the N·(W/N)=W work invariant. Under the hash kernel a probe for
// an absent key examines (nearly) nothing: that asymmetry is the whole
// point of the index.
func TestUniFlowComparisonsPerTuple(t *testing.T) {
	leakcheck.Check(t)
	const (
		cores  = 4
		window = 128
		probes = 50
	)
	run := func(kernel stream.ProbeKernel) uint64 {
		r := make([]stream.Tuple, window)
		s := make([]stream.Tuple, window)
		for i := range r {
			r[i] = stream.Tuple{Key: 0xF0000000 + uint32(i)}
			s[i] = stream.Tuple{Key: 0xE0000000 + uint32(i)}
		}
		e, err := NewUniFlow(Config{NumCores: cores, WindowSize: window, ProbeKernel: kernel})
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Kernel(); got != kernel {
			t.Fatalf("Kernel() = %v, want %v", got, kernel)
		}
		if err := e.Preload(r, s); err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		wg, _ := drain(e.Results())
		for i := 0; i < probes; i++ {
			e.Push(stream.SideR, stream.Tuple{Key: 1})
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		return e.Comparisons()
	}
	if got, want := run(stream.KernelScan), uint64(probes*window); got != want {
		t.Errorf("scan kernel Comparisons() = %d, want %d (full window per tuple)", got, want)
	}
	// Hash kernel: far below a full-window sweep (distinct keys, so probe
	// chains are short; the exact count depends on hash collisions).
	if got, limit := run(stream.KernelHash), uint64(probes*window/4); got >= limit {
		t.Errorf("hash kernel Comparisons() = %d, want < %d (index probes, not sweeps)", got, limit)
	}
}

// TestStoreTurnMatchesPartition holds the division-free store schedule
// (setCounts, and the counters run and prefetch advance) to the two-level
// rule it replaces — arrival n is core k's iff shard.StoreTurn(n) and
// part.StoreTurn(n/shardN) — over shards {1,2,3} × cores {1,2,3,4}, every
// shard index, and arrival counters opened at 0, resumed at an offset (a
// shard router re-opening a session mid-stream), or advanced by Preload.
// Each core's windows must hold exactly the arrivals that rule gives it.
func TestStoreTurnMatchesPartition(t *testing.T) {
	leakcheck.Check(t)
	const pushed = 40 // per side; no window fills, so nothing expires
	check := func(t *testing.T, cfg Config, preR, preS int) {
		t.Helper()
		e, err := NewUniFlow(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fill := func(n int) []stream.Tuple {
			out := make([]stream.Tuple, n)
			for i := range out {
				out[i] = stream.Tuple{Key: uint32(i), Seq: uint64(i)}
			}
			return out
		}
		if preR+preS > 0 {
			if err := e.Preload(fill(preR), fill(preS)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		go func() {
			for rb := range e.Batches() {
				rb.Release()
			}
		}()
		batch := make([]core.Input, 0, 2*pushed)
		for i := 0; i < pushed; i++ {
			batch = append(batch,
				core.Input{Side: stream.SideR, Tuple: stream.Tuple{Key: uint32(i)}},
				core.Input{Side: stream.SideS, Tuple: stream.Tuple{Key: 1 << 20}})
		}
		e.PushBatch(batch[:7]) // batch edges fall mid-stride too
		e.PushBatch(batch[7:])
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		shardN := uint64(cfg.ShardCount)
		shard := core.Partition{NumCores: cfg.ShardCount, Position: cfg.ShardIndex}
		for k, c := range e.cores {
			part := core.Partition{NumCores: cfg.NumCores, Position: k}
			for _, side := range []struct {
				win      *stream.SlidingWindow
				from, to uint64
			}{
				{c.windowR, cfg.BaseSeqR, cfg.BaseSeqR + uint64(preR) + pushed},
				{c.windowS, cfg.BaseSeqS, cfg.BaseSeqS + uint64(preS) + pushed},
			} {
				var want []uint64
				for n := side.from; n < side.to; n++ {
					if shard.StoreTurn(n) && part.StoreTurn(n/shardN) {
						want = append(want, n)
					}
				}
				var got []uint64
				for _, tu := range side.win.Snapshot() {
					got = append(got, tu.Seq)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("core %d stored seqs %v, Partition.StoreTurn gives %v", k, got, want)
				}
			}
		}
	}
	for _, shards := range []int{1, 2, 3} {
		for _, cores := range []int{1, 2, 3, 4} {
			for idx := 0; idx < shards; idx++ {
				for _, base := range [][2]uint64{{0, 0}, {1, 6}, {17, 5}, {1<<32 + 3, 1 << 33}} {
					cfg := Config{NumCores: cores, WindowSize: cores * 4 * pushed, ShardCount: shards, ShardIndex: idx,
						BaseSeqR: base[0], BaseSeqS: base[1]}
					t.Run(fmt.Sprintf("shards=%d/%d/cores=%d/base=%v", idx, shards, cores, base), func(t *testing.T) {
						check(t, cfg, 0, 0)
					})
				}
			}
		}
	}
	for _, pre := range [][2]int{{1, 0}, {5, 2}, {13, 9}} {
		cfg := Config{NumCores: 3, WindowSize: 3 * 4 * pushed, ShardCount: 1}
		t.Run(fmt.Sprintf("preload=%v", pre), func(t *testing.T) { check(t, cfg, pre[0], pre[1]) })
	}
}
