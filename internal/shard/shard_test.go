package shard

import (
	"context"
	"net"
	"testing"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/leakcheck"
	"accelstream/internal/server"
	"accelstream/internal/stream"
	"accelstream/internal/workload"
)

// startShardServer launches one streamd-equivalent server on a loopback
// listener; returned with its address. Shut down at cleanup (idempotent,
// so tests may also shut it down explicitly mid-test).
func startShardServer(t *testing.T) (*server.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(t, server.Config{}, ln)
}

// serveOn serves a server built from cfg on ln until test cleanup and
// returns it with its address. Every goroutine started since must end with
// the server (leakcheck.Check, whose cleanup runs after the shutdown's).
func serveOn(t *testing.T, cfg server.Config, ln net.Listener) (*server.Server, string) {
	t.Helper()
	leakcheck.Check(t)
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ln.Addr().String()
}

// abortServer force-kills a server: every live session's connection is
// closed without a Closed frame, and the listener stops accepting.
func abortServer(t *testing.T, srv *server.Server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srv.Shutdown(ctx)
}

// drainRouter collects the merged stream until it closes.
func drainRouter(r *Router, into *[]stream.Result, done chan<- struct{}) {
	for res := range r.Results() {
		*into = append(*into, res)
	}
	close(done)
}

// sendAll pushes inputs through the router in fixed-size batches.
func sendAll(t *testing.T, r *Router, inputs []core.Input, batchSz int) {
	t.Helper()
	for off := 0; off < len(inputs); off += batchSz {
		end := off + batchSz
		if end > len(inputs) {
			end = len(inputs)
		}
		if err := r.SendBatch(inputs[off:end]); err != nil {
			t.Fatalf("SendBatch at offset %d: %v", off, err)
		}
	}
}

// oracleWithStoredResidue runs the reference oracle and labels every
// result with the residue class (mod shards) of its *stored* tuple — the
// shard that alone could have produced the match. For a probe from side
// R the stored tuple is the S one, and vice versa; Seq is the per-side
// arrival index, which is exactly what the shard store turn is taken on.
func oracleWithStoredResidue(t *testing.T, window int, inputs []core.Input, shards int) (results []stream.Result, residue []int) {
	t.Helper()
	o, err := core.NewOracle(window, stream.EquiJoinOnKey())
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range inputs {
		rs, err := o.Push(in.Side, in.Tuple)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range rs {
			stored := res.S.Seq
			if in.Side == stream.SideS {
				stored = res.R.Seq
			}
			results = append(results, res)
			residue = append(residue, int(stored%uint64(shards)))
		}
	}
	return results, residue
}

// pairCounts builds the multiset of results keyed by (R.Seq, S.Seq).
func pairCounts(results []stream.Result) map[uint64]int {
	m := make(map[uint64]int, len(results))
	for _, r := range results {
		m[r.PairID()]++
	}
	return m
}

// TestRouterThreeShardOracle is the tentpole's acceptance test: three
// shard servers behind the router must together produce exactly the
// single-engine oracle's result multiset — disjoint residue-class slices,
// no duplicates, nothing missing.
func TestRouterThreeShardOracle(t *testing.T) {
	const (
		window  = 96
		tuples  = 6000
		batchSz = 64
	)
	addrs := make([]string, 3)
	for i := range addrs {
		_, addrs[i] = startShardServer(t)
	}
	r, err := Dial(Config{Addrs: addrs, Cores: 2, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.Spec{Seed: 21, KeyDomain: 48})
	if err != nil {
		t.Fatal(err)
	}
	inputs := gen.Take(tuples)

	var results []stream.Result
	done := make(chan struct{})
	go drainRouter(r, &results, done)

	sendAll(t, r, inputs, batchSz)
	st, err := r.Close()
	if err != nil {
		t.Fatal(err)
	}
	<-done

	if st.TuplesIn != tuples {
		t.Errorf("router counted %d tuples in, want %d", st.TuplesIn, tuples)
	}
	if st.ResultsOut != uint64(len(results)) {
		t.Errorf("router reports %d results, drain saw %d", st.ResultsOut, len(results))
	}
	if st.ShardsDown != 0 || st.BatchesDropped != 0 {
		t.Errorf("healthy run reports loss: %+v", st)
	}
	if len(results) == 0 {
		t.Fatal("no results; vacuous run")
	}
	if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, results); err != nil {
		t.Fatal(err)
	}
	// Every shard contributed: the store turn round-robins residue
	// classes, so with a uniform workload no shard's slice stays silent.
	for _, s := range r.Shards() {
		if s.Results == 0 {
			t.Errorf("shard %d produced no results", s.Index)
		}
		if s.Down {
			t.Errorf("shard %d marked down in a healthy run: %+v", s.Index, s)
		}
	}
}

// twoPhaseWorkload builds the kill-test arrival sequence. Phase 1 fills
// the windows with R keys and S keys from disjoint domains (zero matches,
// so nothing is lost if a shard dies with phase-1 results in flight).
// Phase 2 probes across the domains, matching phase-1 residents and each
// other.
func twoPhaseWorkload(perSide int) (phase1, phase2 []core.Input) {
	for i := 0; i < perSide; i++ {
		phase1 = append(phase1,
			core.Input{Side: stream.SideR, Tuple: stream.Tuple{Key: uint32(i % 16), Val: uint32(i)}},
			core.Input{Side: stream.SideS, Tuple: stream.Tuple{Key: uint32(1000 + i%16), Val: uint32(i)}},
		)
	}
	for i := 0; i < perSide; i++ {
		// Phase 2 draws both sides from the R domain: S tuples match the
		// phase-1 R residents (cross-phase) and both sides match earlier
		// phase-2 arrivals (intra-phase), so even a shard that lost its
		// whole window slice produces matches again after recovery.
		phase2 = append(phase2,
			core.Input{Side: stream.SideR, Tuple: stream.Tuple{Key: uint32(i % 16), Val: uint32(1000 + i)}},
			core.Input{Side: stream.SideS, Tuple: stream.Tuple{Key: uint32(i % 16), Val: uint32(1000 + i)}},
		)
	}
	return phase1, phase2
}

// TestRouterShardLossContainment kills one shard between two workload
// phases (redial disabled) and checks the SplitJoin containment argument
// exactly: the merged result set equals the oracle minus precisely the
// matches whose stored tuple belongs to the dead shard's residue class.
func TestRouterShardLossContainment(t *testing.T) {
	const (
		window  = 90 // per side; phase1+phase2 = 90 per side, nothing expires
		perSide = 45
		batchSz = 10
		killed  = 1
	)
	servers := make([]*server.Server, 3)
	addrs := make([]string, 3)
	for i := range addrs {
		servers[i], addrs[i] = startShardServer(t)
	}
	r, err := Dial(Config{
		Addrs:  addrs,
		Window: window,
		Redial: RedialPolicy{Attempts: -1},
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var results []stream.Result
	done := make(chan struct{})
	go drainRouter(r, &results, done)

	phase1, phase2 := twoPhaseWorkload(perSide)
	sendAll(t, r, phase1, batchSz)

	// Kill shard 1 between the phases: its session dies without a Closed
	// frame and its window slice is gone.
	abortServer(t, servers[killed])

	sendAll(t, r, phase2, batchSz)
	st, err := r.Close()
	if err != nil {
		t.Fatal(err)
	}
	<-done

	all := append(append([]core.Input(nil), phase1...), phase2...)
	oracle, residue := oracleWithStoredResidue(t, window, all, 3)
	want := make(map[uint64]int)
	lost := 0
	for i, res := range oracle {
		if residue[i] == killed {
			lost++
			continue
		}
		want[res.PairID()]++
	}
	if lost == 0 {
		t.Fatal("no oracle match stores on the killed shard; vacuous test")
	}
	got := pairCounts(results)
	if len(got) != len(want) {
		t.Errorf("got %d distinct pairs, want %d", len(got), len(want))
	}
	for id, n := range want {
		if got[id] != n {
			t.Errorf("pair %d: got %d, want %d", id, got[id], n)
		}
	}
	for id, n := range got {
		if want[id] != n {
			t.Errorf("unexpected pair %d ×%d (stored on killed shard or duplicated)", id, n)
		}
	}

	states := r.Shards()
	if !states[killed].Down {
		t.Errorf("killed shard not marked down: %+v", states[killed])
	}
	if states[killed].BatchesDropped == 0 {
		t.Errorf("killed shard reports no dropped batches")
	}
	for i, s := range states {
		if i != killed && s.Down {
			t.Errorf("surviving shard %d degraded: %+v", i, s)
		}
	}
	if st.ShardsDown != 1 {
		t.Errorf("stats report %d shards down, want 1", st.ShardsDown)
	}
}

// TestRouterRedialResumesResidueClass drops shard 1's server between
// phases and brings a fresh one up on the same address: the router must
// redial with arrival offsets, and the only matches missing from the
// merged stream are ones stored in the redialed shard's residue class
// (batches lost while the connection was dead, plus the old window
// slice). Nothing may be duplicated.
func TestRouterRedialResumesResidueClass(t *testing.T) {
	const (
		window  = 90
		perSide = 45
		batchSz = 10
		dropped = 1
	)
	servers := make([]*server.Server, 3)
	addrs := make([]string, 3)
	for i := range addrs {
		servers[i], addrs[i] = startShardServer(t)
	}
	r, err := Dial(Config{
		Addrs:  addrs,
		Window: window,
		Redial: RedialPolicy{Attempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var results []stream.Result
	done := make(chan struct{})
	go drainRouter(r, &results, done)

	phase1, phase2 := twoPhaseWorkload(perSide)
	sendAll(t, r, phase1, batchSz)

	// Replace shard 1's server: abort the old one, then listen again on
	// the very same address so the redial has somewhere to land.
	abortServer(t, servers[dropped])
	replacement, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addrs[dropped])
	if err != nil {
		t.Fatalf("rebinding %s: %v", addrs[dropped], err)
	}
	go replacement.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		replacement.Shutdown(ctx)
	})

	sendAll(t, r, phase2, batchSz)
	if _, err := r.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	all := append(append([]core.Input(nil), phase1...), phase2...)
	oracle, residue := oracleWithStoredResidue(t, window, all, 3)
	oracleCounts := pairCounts(oracle)
	got := pairCounts(results)

	// Nothing beyond the oracle, and nothing duplicated.
	for id, n := range got {
		if n > oracleCounts[id] {
			t.Errorf("pair %d seen %d times, oracle has %d", id, n, oracleCounts[id])
		}
	}
	// Whatever is missing must be attributable to the dropped shard: its
	// stored tuple is in that shard's residue class.
	residueOf := make(map[uint64]int, len(oracle))
	for i, res := range oracle {
		residueOf[res.PairID()] = residue[i]
	}
	missing := 0
	for id, n := range oracleCounts {
		if got[id] < n {
			missing += n - got[id]
			if residueOf[id] != dropped {
				t.Errorf("missing pair %d stored on shard %d, only shard %d may lose matches",
					id, residueOf[id], dropped)
			}
		}
	}
	t.Logf("redial run: %d/%d oracle matches delivered (%d missing, all residue %d)",
		len(results), len(oracle), missing, dropped)

	s := r.Shards()[dropped]
	if s.Redials == 0 {
		t.Errorf("dropped shard reports no redials: %+v", s)
	}
	if s.Down {
		t.Errorf("dropped shard did not recover: %+v", s)
	}
	if s.Results == 0 {
		t.Errorf("redialed shard produced no results: %+v", s)
	}
}

// TestRouterFailFast checks the strict mode: once a shard is permanently
// down, SendBatch refuses instead of degrading.
func TestRouterFailFast(t *testing.T) {
	servers := make([]*server.Server, 2)
	addrs := make([]string, 2)
	for i := range addrs {
		servers[i], addrs[i] = startShardServer(t)
	}
	r, err := Dial(Config{
		Addrs:    addrs,
		Window:   32,
		Redial:   RedialPolicy{Attempts: -1},
		FailFast: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var results []stream.Result
	done := make(chan struct{})
	go drainRouter(r, &results, done)

	abortServer(t, servers[0])

	in := []core.Input{{Side: stream.SideR, Tuple: stream.Tuple{Key: 1}}}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := r.SendBatch(in); err != nil {
			break // the down shard surfaced
		}
		if time.Now().After(deadline) {
			t.Fatal("SendBatch never failed after shard loss under FailFast")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := r.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestConfigValidate exercises the router config checks.
func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{Addrs: []string{"a"}, Window: 0},
		{Addrs: []string{"a", "b", "c"}, Window: 100}, // 100 % 3 != 0
	}
	for i, cfg := range bad {
		cfg.applyDefaults()
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d: Validate accepted %+v", i, cfg)
		}
	}
	good := Config{Addrs: []string{"a", "b"}, Window: 64}
	good.applyDefaults()
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected good config: %v", err)
	}
	if good.Cores != 1 || good.QueueDepth != 4 || good.Redial.Attempts != 3 {
		t.Errorf("defaults not applied: %+v", good)
	}
}
