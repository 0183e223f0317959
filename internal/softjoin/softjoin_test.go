package softjoin

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"accelstream/internal/core"
	"accelstream/internal/leakcheck"
	"accelstream/internal/stream"
)

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
	leakcheck.Check(t)
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

// TestBiFlowOneDirectionMatchesOracle mirrors the hardware test: static S
// side, R-only traffic plus flush gives strict-semantics results.
func TestBiFlowOneDirectionMatchesOracle(t *testing.T) {
	leakcheck.Check(t)
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

// TestUniFlowOrderedResults: with OrderedResults, results are released in
// the arrival order of their probing tuples, and the multiset is unchanged.
func TestUniFlowOrderedResults(t *testing.T) {
	leakcheck.Check(t)
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

// TestUniFlowKernelsOracleEqual runs the same random workload through both
// kernels — equi condition for both, plus a non-equi condition on the scan
// kernel — and checks each against the exactly-once oracle.
func TestUniFlowKernelsOracleEqual(t *testing.T) {
	leakcheck.Check(t)
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
	leakcheck.Check(t)
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
	leakcheck.Check(t)
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
