package main

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"accelstream"
	"accelstream/internal/checkpoint"
	"accelstream/internal/core"
	"accelstream/internal/leakcheck"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
	"accelstream/internal/workload"
)

// startFront serves the daemon's own session engine factory over the
// given backends behind a front server whose default probe kernel is
// kernel. It returns the front address and a channel that carries each
// session's engine once the session has built it.
func startFront(t *testing.T, kernel accelstream.ProbeKernel, backends ...string) (string, <-chan *routerEngine) {
	t.Helper()
	factory := newEngine(newRouterRegistry(backends, t.Logf), accelstream.ShardConfig{})
	engines := make(chan *routerEngine, 1)
	front, err := accelstream.Serve("127.0.0.1:0", accelstream.ServerConfig{
		ProbeKernel: kernel,
		NewEngine: func(oc accelstream.SessionConfig) (accelstream.SessionEngineImpl, error) {
			eng, err := factory(oc)
			if err == nil {
				engines <- eng.(*routerEngine)
			}
			return eng, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		front.Shutdown(ctx)
	})
	return front.Addr().String(), engines
}

// TestFrontKernelReachesShards: a session that leaves its probe kernel on
// auto runs the front's -probe-kernel default on every backing shard. The
// front server resolves the kernel before the factory sees the session,
// so the factory forwards it as given.
func TestFrontKernelReachesShards(t *testing.T) {
	leakcheck.Check(t)
	backends := []*accelstream.Server{startBackendServer(t), startBackendServer(t)}
	addr, engines := startFront(t, accelstream.KernelScan, backends[0].Addr().String(), backends[1].Addr().String())
	c, err := accelstream.Dial(addr, accelstream.SessionConfig{
		Engine: accelstream.EngineSoftwareUniFlow, Cores: 1, Window: 64, ProbeKernel: accelstream.KernelAuto,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-engines
	defer c.Close()
	for i, b := range backends {
		ms := b.Metrics()
		if len(ms) != 1 || ms[0].Kernel != "scan" {
			t.Errorf("backend %d sessions %+v, want one running the scan kernel", i, ms)
		}
	}
}

// TestFrontSessionServesRouterBatches: the front session must pull the
// router's merged result batches through the batch capability (never the
// per-result Results view) and the client must still see the oracle's
// multiset.
func TestFrontSessionServesRouterBatches(t *testing.T) {
	leakcheck.Check(t)
	const window, tuples, batchSz = 64, 8000, 64
	addr, engines := startFront(t, accelstream.KernelAuto, startBackend(t), startBackend(t))
	c, err := accelstream.Dial(addr, accelstream.SessionConfig{
		Engine: accelstream.EngineSoftwareUniFlow, Cores: 2, Window: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := <-engines
	gen, err := workload.NewGenerator(workload.Spec{Seed: 4, KeyDomain: 32})
	if err != nil {
		t.Fatal(err)
	}
	inputs := gen.Take(tuples)
	var results []accelstream.Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		for res := range c.Results() {
			results = append(results, res)
		}
	}()
	for i := 0; i < len(inputs); i += batchSz {
		if err := c.SendBatch(inputs[i:min(i+batchSz, len(inputs))]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if err := accelstream.VerifyExactlyOnce(window, accelstream.EquiJoinOnKey(), inputs, results); err != nil {
		t.Fatal(err)
	}
	if st.ResultsOut != uint64(len(results)) || eng.r.ResultsEmitted() != st.ResultsOut {
		t.Errorf("front session sent %d results, router merged %d, client received %d",
			st.ResultsOut, eng.r.ResultsEmitted(), len(results))
	}
}

// TestFrontSessionMergedPushesOracle pipelines 32-tuple frames, many per
// write, into the front session, which merges the frames its read buffer
// holds into one router push — and the router broadcasts what it is
// pushed, so the shards see larger batches than the client sent. The
// client must still see the oracle's multiset.
func TestFrontSessionMergedPushesOracle(t *testing.T) {
	leakcheck.Check(t)
	const window, tuples, frame, perWrite = 64, 8192, 32, 16
	addr, _ := startFront(t, accelstream.KernelAuto, startBackend(t), startBackend(t))
	gen, err := workload.NewGenerator(workload.Spec{Seed: 29, KeyDomain: 32})
	if err != nil {
		t.Fatal(err)
	}
	inputs := gen.Take(tuples)
	var writes [][]byte
	for off := 0; off < tuples; off += frame * perWrite {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		for i := off; i < min(off+frame*perWrite, tuples); i += frame {
			if err := w.WriteBatch(uint64(i/frame+1), inputs[i:i+frame]); err != nil {
				t.Fatal(err)
			}
		}
		writes = append(writes, buf.Bytes())
	}
	var closing bytes.Buffer
	if err := wire.NewWriter(&closing).WriteClose(); err != nil {
		t.Fatal(err)
	}
	writes = append(writes, closing.Bytes())

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	r := wire.NewReader(conn)
	if err := wire.NewWriter(conn).WriteOpen(wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 2, Window: window}); err != nil {
		t.Fatal(err)
	}
	if f, err := r.ReadFrame(); err != nil || f.Type != wire.FrameOpenAck {
		t.Fatalf("handshake answered with %v, %v", f.Type, err)
	}
	// Results flow back while frames are still going out, so the writes
	// run beside the reads.
	writeErr := make(chan error, 1)
	go func() {
		var err error
		for _, b := range writes {
			if _, err = conn.Write(b); err != nil {
				break
			}
		}
		writeErr <- err
	}()
	var results []stream.Result
	credits := 0
	for closed := false; !closed; {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("after %d results: %v", len(results), err)
		}
		switch f.Type {
		case wire.FrameResults:
			res, err := wire.DecodeResults(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res...)
		case wire.FrameCredit:
			n, err := wire.DecodeCredit(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			credits += n
		case wire.FrameError:
			t.Fatalf("front session error: %s", wire.DecodeError(f.Payload))
		case wire.FrameClosed:
			closed = true
		}
	}
	if err := <-writeErr; err != nil {
		t.Fatal(err)
	}
	if credits != tuples/frame {
		t.Errorf("%d credits for %d frames", credits, tuples/frame)
	}
	if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, results); err != nil {
		t.Fatal(err)
	}
}

// TestFrontSessionFinalSnapshot: a streamshard session that drains
// gracefully leaves its router's coordinated snapshot behind, cut while
// the router still has its shard sessions — the final snapshot every
// streamd session writes on a clean close.
func TestFrontSessionFinalSnapshot(t *testing.T) {
	leakcheck.Check(t)
	const window, tuples, batchSz = 64, 320, 32
	dir := t.TempDir()
	front, err := accelstream.Serve("127.0.0.1:0", accelstream.ServerConfig{
		CheckpointDir:      dir,
		CheckpointInterval: -1,
		Logf:               t.Logf,
		NewEngine:          newEngine(newRouterRegistry([]string{startBackend(t), startBackend(t)}, t.Logf), accelstream.ShardConfig{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		front.Shutdown(ctx)
	})
	c, err := accelstream.Dial(front.Addr().String(), accelstream.SessionConfig{
		Engine: accelstream.EngineSoftwareUniFlow, Cores: 2, Window: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range c.Results() {
		}
	}()
	gen, err := workload.NewGenerator(workload.Spec{Seed: 6, KeyDomain: 32})
	if err != nil {
		t.Fatal(err)
	}
	inputs := gen.Take(tuples)
	for i := 0; i < len(inputs); i += batchSz {
		if err := c.SendBatch(inputs[i : i+batchSz]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	// The session writes its final snapshot before its Closed frame, so
	// the snapshot is on disk once Close returns.
	if st := front.ProcessStats().Checkpoints; st.Written != 1 || st.Errors != 0 {
		t.Fatalf("checkpoint stats %+v, want one written and no error", st)
	}
	store, err := checkpoint.NewStore(dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	snap, ok, err := store.LatestValid()
	if err != nil || !ok {
		t.Fatalf("no valid snapshot on disk: ok=%v err=%v", ok, err)
	}
	if snap.Meta.SeqR+snap.Meta.SeqS != tuples || snap.Meta.Window != window {
		t.Fatalf("snapshot at seqs (%d, %d), window %d; streamed %d tuples, window %d",
			snap.Meta.SeqR, snap.Meta.SeqS, snap.Meta.Window, tuples, window)
	}
}

// TestFrontResetBeforeOpenAckReleasesRouter: a client that resets its
// connection after the front session built its router, before the
// OpenAck reaches it, must not strand that router. The factory holds the
// engine back until the reset has happened, so the OpenAck write is
// certain to fail. Once the front has shut down, the router has left the
// registry, its backend sessions are closed, and no goroutine is left.
func TestFrontResetBeforeOpenAckReleasesRouter(t *testing.T) {
	leakcheck.Check(t)
	backends := []*accelstream.Server{startBackendServer(t), startBackendServer(t)}
	reg := newRouterRegistry([]string{backends[0].Addr().String(), backends[1].Addr().String()}, t.Logf)
	factory := newEngine(reg, accelstream.ShardConfig{})
	built, reset := make(chan struct{}), make(chan struct{})
	front, err := accelstream.Serve("127.0.0.1:0", accelstream.ServerConfig{
		Logf: t.Logf,
		NewEngine: func(oc accelstream.SessionConfig) (accelstream.SessionEngineImpl, error) {
			eng, err := factory(oc)
			close(built)
			<-reset
			return eng, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", front.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var open bytes.Buffer
	if err := wire.NewWriter(&open).WriteOpen(wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 64}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(open.Bytes()); err != nil {
		t.Fatal(err)
	}
	<-built
	conn.(*net.TCPConn).SetLinger(0)
	conn.Close()
	close(reset)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := front.Shutdown(ctx); err != nil {
		t.Fatalf("front shutdown: %v", err)
	}
	if ms := front.Metrics(); len(ms) != 1 || ms[0].Open {
		t.Fatalf("front sessions %+v, want the one, closed", ms)
	}
	if n := len(reg.dep.Members()); n != 0 {
		t.Errorf("%d routers still registered after the front shut down", n)
	}
	for i, b := range backends {
		deadline := time.Now().Add(5 * time.Second)
		for {
			ms := b.Metrics()
			if len(ms) == 1 && !ms[0].Open {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("backend %d sessions %+v, want the router's one, closed", i, ms)
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}
