package shard

import (
	"sync"
	"testing"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/stream"
	"accelstream/internal/workload"
)

// collector is a drain that can be read concurrently with the stream: the
// coordinated-snapshot flush barrier guarantees every pre-snapshot result
// has been forwarded into Results by the time SnapshotState returns, so a
// test can wait for the collector to catch up to ResultsEmitted and then
// take a consistent prefix.
type collector struct {
	mu   sync.Mutex
	res  []stream.Result
	done chan struct{}
}

func newCollector(r *Router) *collector {
	c := &collector{done: make(chan struct{})}
	go func() {
		for res := range r.Results() {
			c.mu.Lock()
			c.res = append(c.res, res)
			c.mu.Unlock()
		}
		close(c.done)
	}()
	return c
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.res)
}

// waitLen blocks until at least n results have been collected.
func (c *collector) waitLen(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.len() < n {
		if time.Now().After(deadline) {
			t.Fatalf("collector stuck at %d of %d results", c.len(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *collector) prefix(n int) []stream.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]stream.Result(nil), c.res[:n]...)
}

func (c *collector) all() []stream.Result {
	<-c.done
	return c.res
}

// TestRouterCoordinatedSnapshotRestore is the sharded half of the
// durability acceptance test: a three-shard deployment cuts a coordinated
// snapshot mid-stream (all shards at the same punctuation boundary), the
// live run keeps going and stays oracle-equal, and the snapshot restores
// into a *two*-shard deployment — ImportState reslices the global window
// by the new residue classes — where replaying only the post-snapshot
// suffix completes the oracle result set exactly once.
func TestRouterCoordinatedSnapshotRestore(t *testing.T) {
	const (
		window  = 96 // divides evenly by both 3 and 2 shards
		fill    = 3000
		suffix  = 1200
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
	gen, err := workload.NewGenerator(workload.Spec{Seed: 33, KeyDomain: 48})
	if err != nil {
		t.Fatal(err)
	}
	inputs := gen.Take(fill + suffix)
	var wantR, wantS uint64
	for _, in := range inputs[:fill] {
		if in.Side == stream.SideR {
			wantR++
		} else {
			wantS++
		}
	}

	col := newCollector(r)
	sendAll(t, r, inputs[:fill], batchSz)
	tuples, seqR, seqS, err := r.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if seqR != wantR || seqS != wantS {
		t.Fatalf("snapshot at seqs (%d, %d), pushed (%d, %d)", seqR, seqS, wantR, wantS)
	}
	var nR, nS int
	for i, in := range tuples {
		if in.Side == stream.SideR {
			nR++
		} else {
			nS++
		}
		if i > 0 && tuples[i-1].Side == stream.SideS && in.Side == stream.SideR {
			t.Fatal("snapshot not in R-before-S order")
		}
		if i > 0 && tuples[i-1].Side == in.Side && tuples[i-1].Tuple.Seq >= in.Tuple.Seq {
			t.Fatalf("snapshot side run not ascending at %d", i)
		}
	}
	if nR != window || nS != window {
		t.Fatalf("snapshot holds (%d R, %d S) tuples, want full windows of %d", nR, nS, window)
	}
	// The flush barrier makes ResultsEmitted a consistent cut: everything
	// the pre-snapshot input implies, nothing from after.
	preCount := int(r.ResultsEmitted())
	col.waitLen(t, preCount)
	pre := col.prefix(preCount)

	// The live deployment is undisturbed: finish the stream, full oracle.
	sendAll(t, r, inputs[fill:], batchSz)
	if _, err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, col.all()); err != nil {
		t.Fatalf("live run diverged after snapshot: %v", err)
	}

	// Restore into a fresh two-shard deployment and replay the suffix.
	addrs2 := make([]string, 2)
	for i := range addrs2 {
		_, addrs2[i] = startShardServer(t)
	}
	r2, err := Dial(Config{Addrs: addrs2, Cores: 2, Window: window, BaseSeqR: seqR, BaseSeqS: seqS})
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.ImportState(tuples); err != nil {
		t.Fatal(err)
	}
	col2 := newCollector(r2)
	sendAll(t, r2, inputs[fill:], batchSz)
	if _, err := r2.Close(); err != nil {
		t.Fatal(err)
	}

	merged := append(pre, col2.all()...)
	seen := make(map[uint64]struct{}, len(merged))
	for _, res := range merged {
		if _, dup := seen[res.PairID()]; dup {
			t.Fatalf("duplicate result across the snapshot boundary: %+v", res)
		}
		seen[res.PairID()] = struct{}{}
	}
	if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, merged); err != nil {
		t.Fatalf("restored run diverged from oracle: %v", err)
	}
}

// TestRouterImportStateOrdering: ImportState is a restore-time operation;
// once the first batch has been broadcast it must be refused.
func TestRouterImportStateOrdering(t *testing.T) {
	addrs := make([]string, 2)
	for i := range addrs {
		_, addrs[i] = startShardServer(t)
	}
	r, err := Dial(Config{Addrs: addrs, Cores: 1, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	col := newCollector(r)
	if err := r.SendBatch([]core.Input{{Side: stream.SideR, Tuple: stream.Tuple{Key: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := r.ImportState(nil); err == nil {
		t.Fatal("ImportState after the first batch must fail")
	}
	if _, err := r.Close(); err != nil {
		t.Fatal(err)
	}
	col.all()
}

// TestRouterSnapshotAfterCloseFails: the snapshot path refuses a closed
// router instead of hanging on retired sender queues.
func TestRouterSnapshotAfterCloseFails(t *testing.T) {
	addrs := []string{func() string { _, a := startShardServer(t); return a }()}
	r, err := Dial(Config{Addrs: addrs, Cores: 1, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	col := newCollector(r)
	if _, err := r.Close(); err != nil {
		t.Fatal(err)
	}
	col.all()
	if _, _, _, err := r.SnapshotState(); err == nil {
		t.Fatal("SnapshotState on a closed router must fail")
	}
}

// TestRouterSnapshotWithSlowBatchConsumer drives the router's batch
// output (the path streamshard's front session uses) with a consumer
// slower than the shards: batches back up in the merged channel, in each
// client's batch channel and in the shards' sockets. The coordinated
// snapshot's flush barrier must still terminate, and because every
// counter on the way is advanced by len(batch) only after the hand-off,
// ResultsEmitted at the boundary must equal the oracle's count for the
// input so far — and the merged stream must stay oracle-equal overall.
func TestRouterSnapshotWithSlowBatchConsumer(t *testing.T) {
	const window, fill, suffix, batchSz = 64, 2400, 800, 48
	addrs := make([]string, 2)
	for i := range addrs {
		_, addrs[i] = startShardServer(t)
	}
	r, err := Dial(Config{Addrs: addrs, Cores: 2, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.Spec{Seed: 9, KeyDomain: 16})
	if err != nil {
		t.Fatal(err)
	}
	inputs := gen.Take(fill + suffix)

	var mu sync.Mutex
	var got []stream.Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := range r.Batches() {
			time.Sleep(100 * time.Microsecond)
			mu.Lock()
			got = append(got, b.Results...)
			mu.Unlock()
			b.Release()
		}
	}()

	sendAll(t, r, inputs[:fill], batchSz)
	if _, _, _, err := r.SnapshotState(); err != nil {
		t.Fatal(err)
	}
	oracle, err := core.NewOracle(window, stream.EquiJoinOnKey())
	if err != nil {
		t.Fatal(err)
	}
	wantFill, err := oracle.Run(inputs[:fill])
	if err != nil {
		t.Fatal(err)
	}
	if n := r.ResultsEmitted(); n != uint64(len(wantFill)) {
		t.Fatalf("at the snapshot boundary the router had forwarded %d results, the cut implies %d", n, len(wantFill))
	}
	var perShard uint64
	for _, st := range r.Shards() {
		perShard += st.Results
	}
	if perShard != uint64(len(wantFill)) {
		t.Fatalf("per-shard result counters sum to %d at the boundary, want %d", perShard, len(wantFill))
	}

	sendAll(t, r, inputs[fill:], batchSz)
	st, err := r.Close()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if st.ResultsOut != uint64(len(got)) {
		t.Fatalf("router counted %d results, consumer received %d", st.ResultsOut, len(got))
	}
	if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, got); err != nil {
		t.Fatal(err)
	}
}
