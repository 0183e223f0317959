package softjoin

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"ok", Config{NumCores: 4, WindowSize: 64}, false},
		{"indivisible ok (software rounds up)", Config{NumCores: 3, WindowSize: 64}, false},
		{"zero cores", Config{NumCores: 0, WindowSize: 64}, true},
		{"zero window", Config{NumCores: 4, WindowSize: 0}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewUniFlow(tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewUniFlow() error = %v, wantErr %v", err, tt.wantErr)
			}
			_, err = NewBiFlow(tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewBiFlow() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

// drain consumes an engine's result channel into a slice concurrently.
func drain(results <-chan stream.Result) (*sync.WaitGroup, *[]stream.Result) {
	var wg sync.WaitGroup
	var got []stream.Result
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := range results {
			got = append(got, r)
		}
	}()
	return &wg, &got
}

func randomWorkload(rng *rand.Rand, n, keyDomain int) []core.Input {
	inputs := make([]core.Input, n)
	for i := range inputs {
		side := stream.SideR
		if rng.Intn(2) == 1 {
			side = stream.SideS
		}
		inputs[i] = core.Input{Side: side, Tuple: stream.Tuple{Key: uint32(rng.Intn(keyDomain)), Val: uint32(i)}}
	}
	return inputs
}

// TestUniFlowMatchesOracle: the software SplitJoin must produce exactly the
// oracle's multiset for any arrival order, any core count, any batch size.
func TestUniFlowMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cases := []struct {
		cores, window, batch int
	}{
		{1, 16, 1},
		{2, 32, 3},
		{4, 64, 64},
		{8, 64, 7},
		{16, 128, 128},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("cores=%d_w=%d_b=%d", tc.cores, tc.window, tc.batch), func(t *testing.T) {
			inputs := randomWorkload(rng, 800, 24)
			e, err := NewUniFlow(Config{NumCores: tc.cores, WindowSize: tc.window, BatchSize: tc.batch})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			wg, got := drain(e.Results())
			for _, in := range inputs {
				e.Push(in.Side, in.Tuple)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			if err := core.VerifyExactlyOnce(tc.window, stream.EquiJoinOnKey(), inputs, *got); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestUniFlowRoundRobinBalance: the storage discipline balances within one
// tuple across cores.
func TestUniFlowRoundRobinBalance(t *testing.T) {
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

// TestUniFlowPreload: preloaded windows join like streamed ones.
func TestUniFlowPreload(t *testing.T) {
	const window = 64
	s := make([]stream.Tuple, window)
	for i := range s {
		s[i] = stream.Tuple{Key: uint32(i % 8), Seq: uint64(i)}
	}
	e, err := NewUniFlow(Config{NumCores: 4, WindowSize: window, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Preload(nil, s); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	wg, got := drain(e.Results())
	e.Push(stream.SideR, stream.Tuple{Key: 3})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(*got) != window/8 {
		t.Errorf("probe matched %d tuples, want %d", len(*got), window/8)
	}
}

func TestUniFlowPreloadAfterStartFails(t *testing.T) {
	e, err := NewUniFlow(Config{NumCores: 2, WindowSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Preload(nil, nil); err == nil {
		t.Error("Preload after Start succeeded, want error")
	}
	wg, _ := drain(e.Results())
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

func TestUniFlowLifecycleErrors(t *testing.T) {
	e, err := NewUniFlow(Config{NumCores: 2, WindowSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err == nil {
		t.Error("Close before Start succeeded, want error")
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err == nil {
		t.Error("double Start succeeded, want error")
	}
	wg, _ := drain(e.Results())
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("repeated Close = %v, want nil", err)
	}
	wg.Wait()
}

// TestBiFlowOneDirectionMatchesOracle mirrors the hardware test: static S
// side, R-only traffic plus flush gives strict-semantics results.
func TestBiFlowOneDirectionMatchesOracle(t *testing.T) {
	const (
		cores  = 4
		window = 32
		probes = 20
	)
	rng := rand.New(rand.NewSource(31))
	s := make([]stream.Tuple, window)
	for i := range s {
		s[i] = stream.Tuple{Key: uint32(rng.Intn(8)), Seq: uint64(i)}
	}
	e, err := NewBiFlow(Config{NumCores: cores, WindowSize: window})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Preload(nil, s); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	wg, got := drain(e.Results())

	oracle, err := core.NewOracle(window+probes+1024, stream.EquiJoinOnKey())
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range s {
		if _, err := oracle.Push(stream.SideS, stream.Tuple{Key: tu.Key}); err != nil {
			t.Fatal(err)
		}
	}
	var want []stream.Result
	for i := 0; i < probes; i++ {
		tu := stream.Tuple{Key: uint32(rng.Intn(8))}
		rs, err := oracle.Push(stream.SideR, tu)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rs...)
		e.Push(stream.SideR, tu)
	}
	// Flush: push the real probes through the entire chain.
	for i := 0; i < window+probes+16; i++ {
		fl := stream.Tuple{Key: 0xFFFFFFFE}
		if _, err := oracle.Push(stream.SideR, fl); err != nil {
			t.Fatal(err)
		}
		e.Push(stream.SideR, fl)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	diffs := core.NewResultSet(want).Diff(core.NewResultSet(*got))
	if len(diffs) != 0 {
		t.Errorf("bi-flow one-direction mismatch (%d diffs): %v", len(diffs), diffs[:min(4, len(diffs))])
	}
	if len(want) == 0 {
		t.Error("oracle produced nothing; vacuous test")
	}
}

// TestBiFlowNoDuplicatesUnderConcurrency: with both streams flowing, no
// pair is ever emitted twice and all emitted pairs satisfy the condition.
func TestBiFlowNoDuplicatesUnderConcurrency(t *testing.T) {
	const (
		cores  = 4
		window = 64
	)
	rng := rand.New(rand.NewSource(41))
	e, err := NewBiFlow(Config{NumCores: cores, WindowSize: window})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	wg, got := drain(e.Results())
	for i := 0; i < 2000; i++ {
		side := stream.SideR
		if i%2 == 1 {
			side = stream.SideS
		}
		e.Push(side, stream.Tuple{Key: uint32(rng.Intn(6))})
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, r := range *got {
		if r.R.Key != r.S.Key {
			t.Fatalf("pair violates condition: %v", r)
		}
		if seen[r.PairID()] {
			t.Fatalf("pair emitted twice: %v", r)
		}
		seen[r.PairID()] = true
	}
	if len(*got) == 0 {
		t.Error("no results; vacuous test")
	}
	expR, expS := e.Expired()
	if expR == 0 || expS == 0 {
		t.Errorf("expected expiry on both ends, got R=%d S=%d", expR, expS)
	}
}

// TestUniFlowOrderedResults: with OrderedResults, results are released in
// the arrival order of their probing tuples, and the multiset is unchanged.
func TestUniFlowOrderedResults(t *testing.T) {
	const (
		cores  = 8
		window = 64
		probes = 300
	)
	s := make([]stream.Tuple, window)
	for i := range s {
		s[i] = stream.Tuple{Key: uint32(i % 4), Seq: uint64(i)}
	}
	run := func(ordered bool) []stream.Result {
		e, err := NewUniFlow(Config{
			NumCores:       cores,
			WindowSize:     window,
			BatchSize:      4,
			OrderedResults: ordered,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Preload(nil, s); err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		wg, got := drain(e.Results())
		for i := 0; i < probes; i++ {
			e.Push(stream.SideR, stream.Tuple{Key: uint32(i % 4), Val: uint32(i)})
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		return *got
	}
	ordered := run(true)
	relaxed := run(false)
	if len(ordered) == 0 {
		t.Fatal("no results; vacuous test")
	}
	// Ordered mode: probing tuples (all from R here) appear in arrival order.
	for i := 1; i < len(ordered); i++ {
		if ordered[i].R.Seq < ordered[i-1].R.Seq {
			t.Fatalf("ordered mode emitted probe seq %d after %d at position %d",
				ordered[i].R.Seq, ordered[i-1].R.Seq, i)
		}
	}
	// Same multiset as relaxed mode.
	if diffs := core.NewResultSet(relaxed).Diff(core.NewResultSet(ordered)); len(diffs) != 0 {
		t.Errorf("ordered mode changed the result multiset: %v", diffs[:min(4, len(diffs))])
	}
}

// TestUniFlowComparisonsPerTuple: Comparisons() stays meaningful per
// kernel. Under the scan kernel each tuple sweeps one full sub-window per
// core — the N·(W/N)=W work invariant. Under the hash kernel a probe for
// an absent key examines (nearly) nothing: that asymmetry is the whole
// point of the index.
func TestUniFlowComparisonsPerTuple(t *testing.T) {
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

// TestUniFlowAutoKernelResolution: auto picks hash for the default
// equi-join condition and scan for anything else; forcing hash with a
// non-equi condition is a configuration error.
func TestUniFlowAutoKernelResolution(t *testing.T) {
	e, err := NewUniFlow(Config{NumCores: 1, WindowSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if e.Kernel() != stream.KernelHash {
		t.Errorf("auto kernel for equi-join = %v, want hash", e.Kernel())
	}
	band := stream.JoinCondition{LHS: stream.FieldKey, RHS: stream.FieldKey, Cmp: stream.CmpLT}
	e, err = NewUniFlow(Config{NumCores: 1, WindowSize: 8, Condition: band})
	if err != nil {
		t.Fatal(err)
	}
	if e.Kernel() != stream.KernelScan {
		t.Errorf("auto kernel for non-equi condition = %v, want scan", e.Kernel())
	}
	if _, err := NewUniFlow(Config{NumCores: 1, WindowSize: 8, Condition: band, ProbeKernel: stream.KernelHash}); err == nil {
		t.Error("forcing the hash kernel with a non-equi condition succeeded, want error")
	}
	if _, err := NewUniFlow(Config{NumCores: 1, WindowSize: 8, ProbeKernel: stream.ProbeKernel(7)}); err == nil {
		t.Error("invalid kernel code accepted, want error")
	}
}

// TestUniFlowKernelsOracleEqual runs the same random workload through both
// kernels — equi condition for both, plus a non-equi condition on the scan
// kernel — and checks each against the exactly-once oracle.
func TestUniFlowKernelsOracleEqual(t *testing.T) {
	const (
		window = 64
		tuples = 4000
	)
	conds := []struct {
		name   string
		cond   stream.JoinCondition
		kernel stream.ProbeKernel
	}{
		{"equi/hash", stream.EquiJoinOnKey(), stream.KernelHash},
		{"equi/scan", stream.EquiJoinOnKey(), stream.KernelScan},
		{"lt-key/scan", stream.JoinCondition{LHS: stream.FieldKey, RHS: stream.FieldKey, Cmp: stream.CmpLT}, stream.KernelScan},
		{"ge-val/scan", stream.JoinCondition{LHS: stream.FieldVal, RHS: stream.FieldVal, Cmp: stream.CmpGE}, stream.KernelScan},
	}
	for _, tc := range conds {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			inputs := randomWorkload(rng, tuples, 32)
			e, err := NewUniFlow(Config{NumCores: 4, WindowSize: window, Condition: tc.cond, ProbeKernel: tc.kernel})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			wg, got := drain(e.Results())
			for _, in := range inputs {
				e.Push(in.Side, in.Tuple)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			if err := core.VerifyExactlyOnce(window, tc.cond, inputs, *got); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestUniFlowShardedUnionMatchesOracle is the engine-level half of the
// sharded-deployment correctness argument: N engines, each configured
// with one residue class and a window slice of W/N, all fed the same
// broadcast stream. The union of their result multisets must equal the
// oracle over the global window W, with no duplicates (the slices are
// disjoint, so no result can be produced twice).
func TestUniFlowShardedUnionMatchesOracle(t *testing.T) {
	const (
		shards = 3
		window = 96 // per shard slice: 32
		tuples = 5000
	)
	rng := rand.New(rand.NewSource(21))
	inputs := randomWorkload(rng, tuples, 48)

	var merged []stream.Result
	var mu sync.Mutex
	var wg sync.WaitGroup
	engines := make([]*UniFlow, shards)
	for k := 0; k < shards; k++ {
		e, err := NewUniFlow(Config{
			NumCores:   2,
			WindowSize: window / shards,
			ShardCount: shards,
			ShardIndex: k,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		engines[k] = e
		wg.Add(1)
		go func(e *UniFlow) {
			defer wg.Done()
			for r := range e.Results() {
				mu.Lock()
				merged = append(merged, r)
				mu.Unlock()
			}
		}(e)
	}
	for k := 0; k < shards; k++ {
		// Each engine gets its own copy: PushBatch stamps Seq in place.
		batch := make([]core.Input, len(inputs))
		copy(batch, inputs)
		engines[k].PushBatch(batch)
		if err := engines[k].Close(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	if len(merged) == 0 {
		t.Fatal("no results from sharded engines; vacuous run")
	}
	if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, merged); err != nil {
		t.Fatal(err)
	}
	// The residue classes partition the stored tuples: each engine stored
	// only every shards-th tuple of each side.
	for k, e := range engines {
		storedR := e.StoredPerCore(stream.SideR)
		var sum uint64
		for _, s := range storedR {
			sum += s
		}
		var wantR uint64
		for _, in := range inputs {
			if in.Side == stream.SideR {
				wantR++
			}
		}
		want := wantR / shards
		if uint64(k) < wantR%shards {
			want++
		}
		if sum != want {
			t.Errorf("shard %d stored %d R tuples, want %d", k, sum, want)
		}
	}
}

// TestUniFlowBaseSeqResume models a shard session re-opened mid-stream:
// an engine opened with base sequence offsets must continue the global
// residue-class alignment and stamp globally consistent Seq numbers.
func TestUniFlowBaseSeqResume(t *testing.T) {
	const (
		shards = 2
		slice  = 8
	)
	// Feed 40 tuples (20 per side) through a fresh engine for shard 1,
	// then 40 more through a "resumed" engine opened at the offsets.
	var inputs1, inputs2 []core.Input
	for i := 0; i < 40; i++ {
		side := stream.SideR
		if i%2 == 1 {
			side = stream.SideS
		}
		inputs1 = append(inputs1, core.Input{Side: side, Tuple: stream.Tuple{Key: uint32(i % 8)}})
		inputs2 = append(inputs2, core.Input{Side: side, Tuple: stream.Tuple{Key: uint32((i + 3) % 8)}})
	}

	resumed, err := NewUniFlow(Config{
		NumCores:   1,
		WindowSize: slice,
		ShardCount: shards,
		ShardIndex: 1,
		BaseSeqR:   20,
		BaseSeqS:   20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Start(); err != nil {
		t.Fatal(err)
	}
	wg, got := drain(resumed.Results())
	batch := make([]core.Input, len(inputs2))
	copy(batch, inputs2)
	resumed.PushBatch(batch)
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// Every result's sequence numbers must come from the resumed range.
	for _, r := range *got {
		if r.R.Seq < 20 || r.S.Seq < 20 {
			t.Fatalf("result %+v carries a pre-resume sequence number", r)
		}
	}
	// Residue alignment: the resumed engine must store the same tuples a
	// never-failed shard-1 engine would have stored for arrivals 20..39,
	// i.e. per-side arrival indices 21, 23, ... (odd residues).
	storedR := resumed.StoredPerCore(stream.SideR)
	var sum uint64
	for _, s := range storedR {
		sum += s
	}
	// Per-side arrivals 20..39: residue-1 indices are 21,23,..,39 → 10.
	if sum != 10 {
		t.Errorf("resumed shard stored %d R tuples, want 10", sum)
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
