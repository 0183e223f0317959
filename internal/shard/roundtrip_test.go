package shard_test

import (
	"context"
	"net"
	"testing"
	"time"

	"accelstream/internal/checkpoint"
	"accelstream/internal/core"
	"accelstream/internal/leakcheck"
	"accelstream/internal/server"
	"accelstream/internal/shard"
	"accelstream/internal/stream"
	"accelstream/internal/workload"
)

// TestRunRoundTripWritesNoSnapshot resizes a live stream 2 → 3 → 2 through
// the shard router over in-process servers that each have a checkpoint
// store. The merged results stay oracle-equal, and the hand-off writes no
// snapshot on the shards it drains — neither at the cut nor at their
// close. The graceful close at the end is the positive control: it does
// write one.
func TestRunRoundTripWritesNoSnapshot(t *testing.T) {
	const (
		window  = 120 // splits evenly over 2 and 3 shards of 2 cores
		cores   = 2
		tuples  = 3000
		batchSz = 50
	)
	srvs := make([]*server.Server, 5)
	addrs := make([]string, 5)
	dirs := make([]string, 5)
	for i := range srvs {
		dirs[i] = t.TempDir()
		srvs[i], addrs[i] = startCheckpointServer(t, dirs[i])
	}
	gen, err := workload.NewGenerator(workload.Spec{Seed: 41, KeyDomain: 48})
	if err != nil {
		t.Fatal(err)
	}
	inputs := gen.Take(tuples)

	r, err := shard.Dial(shard.Config{Addrs: addrs[:2], Cores: cores, Window: window, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var results []stream.Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		for res := range r.Results() {
			results = append(results, res)
		}
	}()
	send := func(part []core.Input) {
		for off := 0; off < len(part); off += batchSz {
			if err := r.SendBatch(part[off : off+batchSz]); err != nil {
				t.Fatal(err)
			}
		}
	}
	resize := func(oldAddrs, newAddrs []string) {
		t.Helper()
		rep, err := r.Rebalance(newAddrs)
		if err != nil {
			t.Fatalf("rebalance %d → %d: %v", len(oldAddrs), len(newAddrs), err)
		}
		if rep.Aborted || rep.SlicesLost != 0 || rep.TuplesMigrated == 0 {
			t.Fatalf("rebalance %d → %d: report %+v", len(oldAddrs), len(newAddrs), rep)
		}
	}

	send(inputs[:tuples/3])
	resize(addrs[:2], addrs[2:5])
	assertNoSnapshot(t, srvs[:2], dirs[:2])
	send(inputs[tuples/3 : 2*tuples/3])
	resize(addrs[2:5], addrs[:2])
	assertNoSnapshot(t, srvs[2:5], dirs[2:5])
	send(inputs[2*tuples/3:])
	if _, err := r.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, results); err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		if n := srvs[i].ProcessStats().Checkpoints.Written; n == 0 {
			t.Errorf("server %d wrote no snapshot at a graceful close: the store check above proves nothing", i)
		}
	}
}

// startCheckpointServer launches a server with a checkpoint store in dir
// on a loopback listener, shut down at cleanup. Interval snapshots are off,
// so every snapshot the store holds was cut by a session's cut or close.
// Every goroutine started since must end with the server.
func startCheckpointServer(t *testing.T, dir string) (*server.Server, string) {
	t.Helper()
	leakcheck.Check(t)
	srv, err := server.New(server.Config{CheckpointDir: dir, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
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

// assertNoSnapshot checks that drained shards neither counted nor stored a
// snapshot.
func assertNoSnapshot(t *testing.T, srvs []*server.Server, dirs []string) {
	t.Helper()
	for i, srv := range srvs {
		if st := srv.ProcessStats().Checkpoints; st.Written != 0 || st.Errors != 0 {
			t.Errorf("drained shard %d: checkpoint stats %+v, want none written", i, st)
		}
		store, err := checkpoint.NewStore(dirs[i], 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := store.LatestValid(); ok || err != nil {
			t.Errorf("drained shard %d: store holds a snapshot (ok=%v, err=%v)", i, ok, err)
		}
	}
}
