package shard

import (
	"net"
	"testing"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/stream"
	"accelstream/internal/workload"
)

// TestSnapshotAcrossResizes crosses the state operations that the
// per-feature suites exercise only one at a time: a coordinated snapshot
// cut after a completed resize, and one cut straight after an aborted
// resize restored the old layout. Each snapshot must restore into a fresh
// deployment of another shard count and, with only the suffix replayed,
// complete the oracle result set exactly once.
func TestSnapshotAcrossResizes(t *testing.T) {
	const (
		window = 96 // slices evenly over 2, 3 and 4 shards of 2 cores
		fill   = 3000
		suffix = 1200
	)
	t.Run("shrink 3 to 2, restore into 4", func(t *testing.T) {
		addrs := make([]string, 3)
		for i := range addrs {
			_, addrs[i] = startShardServer(t)
		}
		r, err := Dial(Config{Addrs: addrs, Cores: 2, Window: window, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		inputs := takeInputs(t, 71, fill+suffix)
		col := newCollector(r)
		sendAll(t, r, inputs[:fill/2], 64)
		rep, err := r.Rebalance(addrs[:2])
		if err != nil {
			t.Fatal(err)
		}
		if rep.Aborted || rep.SlicesLost != 0 || rep.OldShards != 3 || rep.NewShards != 2 {
			t.Fatalf("resize report %+v", rep)
		}
		sendAll(t, r, inputs[fill/2:fill], 64)
		snapshotThenRestore(t, r, col, inputs, fill, 4)
	})
	t.Run("snapshot straight after an aborted resize", func(t *testing.T) {
		addrs := make([]string, 3)
		for i := range addrs {
			_, addrs[i] = startShardServer(t)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		deadAddr := ln.Addr().String()
		ln.Close()
		r, err := Dial(Config{Addrs: addrs, Cores: 2, Window: window, DialTimeout: 2 * time.Second, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		inputs := takeInputs(t, 72, fill+suffix)
		col := newCollector(r)
		sendAll(t, r, inputs[:fill], 64)
		rep, err := r.Rebalance(append(addrs[:3:3], deadAddr))
		if err == nil || !rep.Aborted || rep.SlicesLost != 0 {
			t.Fatalf("resize toward a dead shard: report %+v, err %v; want a clean abort", rep, err)
		}
		snapshotThenRestore(t, r, col, inputs, fill, 2)
	})
}

func takeInputs(t *testing.T, seed int64, n int) []core.Input {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Spec{Seed: seed, KeyDomain: 48})
	if err != nil {
		t.Fatal(err)
	}
	return gen.Take(n)
}

// snapshotThenRestore cuts a coordinated snapshot of r once inputs[:fill]
// has been sent, finishes the live stream (which must stay oracle-equal),
// then restores the snapshot into a fresh restoreN-shard deployment and
// replays only the suffix. The results r emitted before the cut plus the
// restored run's must be the oracle's, each exactly once.
func snapshotThenRestore(t *testing.T, r *Router, col *collector, inputs []core.Input, fill, restoreN int) {
	t.Helper()
	window := r.cfg.Window
	tuples, seqR, seqS, err := r.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	var wantR, wantS uint64
	for _, in := range inputs[:fill] {
		if in.Side == stream.SideR {
			wantR++
		} else {
			wantS++
		}
	}
	if seqR != wantR || seqS != wantS {
		t.Fatalf("snapshot at seqs (%d, %d), pushed (%d, %d)", seqR, seqS, wantR, wantS)
	}
	if len(tuples) != 2*window {
		t.Fatalf("snapshot holds %d tuples, want both full windows of %d", len(tuples), window)
	}
	// The flush barrier makes ResultsEmitted exact at the cut: every result
	// the pre-snapshot input implies, whichever generation produced it.
	oracle, err := core.NewOracle(window, stream.EquiJoinOnKey())
	if err != nil {
		t.Fatal(err)
	}
	wantPre, err := oracle.Run(inputs[:fill])
	if err != nil {
		t.Fatal(err)
	}
	preCount := int(r.ResultsEmitted())
	if preCount != len(wantPre) {
		t.Fatalf("at the cut the router had forwarded %d results, the input implies %d", preCount, len(wantPre))
	}
	col.waitLen(t, preCount)
	pre := col.prefix(preCount)

	sendAll(t, r, inputs[fill:], 64)
	if _, err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, col.all()); err != nil {
		t.Fatalf("live run diverged after the snapshot: %v", err)
	}

	addrs := make([]string, restoreN)
	for i := range addrs {
		_, addrs[i] = startShardServer(t)
	}
	r2, err := Dial(Config{Addrs: addrs, Cores: 2, Window: window, BaseSeqR: seqR, BaseSeqS: seqS})
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.ImportState(tuples); err != nil {
		t.Fatal(err)
	}
	col2 := newCollector(r2)
	sendAll(t, r2, inputs[fill:], 64)
	if _, err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, append(pre, col2.all()...)); err != nil {
		t.Fatalf("restored run diverged from the oracle: %v", err)
	}
}
