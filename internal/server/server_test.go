package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/leakcheck"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
	"accelstream/internal/workload"
)

// startServer launches a server on a loopback listener and returns it
// with its dial address. The server is shut down at test cleanup, and
// every goroutine started since must end with it (leakcheck.Check, whose
// cleanup runs after the shutdown's).
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(t, cfg, ln)
}

// serveOn is startServer over a listener the test built.
func serveOn(t *testing.T, cfg Config, ln net.Listener) (*Server, string) {
	t.Helper()
	leakcheck.Check(t)
	srv, err := New(cfg)
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-serveDone; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// drainAll collects every result from the client until the channel closes.
func drainAll(c *Client, into *[]stream.Result, done chan<- struct{}) {
	for r := range c.Results() {
		*into = append(*into, r)
	}
	close(done)
}

// TestEndToEndUniFlowExactlyOnce is the subsystem's acceptance test: a
// client drives >10k tuples through a software uni-flow engine behind a
// loopback socket and the received result multiset must match the oracle
// exactly (every tuple compared exactly once with the opposite window).
func TestEndToEndUniFlowExactlyOnce(t *testing.T) {
	_, addr := startServer(t, Config{})
	const (
		window  = 256
		tuples  = 12000
		batchSz = 64
	)
	c, err := Dial(addr, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 4, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.Spec{Seed: 1, KeyDomain: 512})
	if err != nil {
		t.Fatal(err)
	}
	inputs := gen.Take(tuples)

	var results []stream.Result
	done := make(chan struct{})
	go drainAll(c, &results, done)

	for off := 0; off < len(inputs); off += batchSz {
		end := off + batchSz
		if end > len(inputs) {
			end = len(inputs)
		}
		if err := c.SendBatch(inputs[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	<-done

	if st.TuplesIn != tuples {
		t.Errorf("server ingested %d tuples, want %d", st.TuplesIn, tuples)
	}
	if st.ResultsOut != uint64(len(results)) {
		t.Errorf("server reports %d results, client received %d", st.ResultsOut, len(results))
	}
	if len(results) == 0 {
		t.Fatal("no results received; vacuous run")
	}
	if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, results); err != nil {
		t.Fatal(err)
	}
	if avg, max, n := c.BatchRTT(); n == 0 || avg <= 0 || max < avg {
		t.Errorf("batch RTT instrumentation empty: avg=%v max=%v n=%d", avg, max, n)
	}
}

// TestEndToEndSimEngine runs the cycle-level simulated uni-flow design
// behind the socket; it is oracle-exact like its in-process tests.
func TestEndToEndSimEngine(t *testing.T) {
	_, addr := startServer(t, Config{})
	const (
		window  = 64
		tuples  = 2000
		batchSz = 50
	)
	c, err := Dial(addr, wire.OpenConfig{Engine: wire.EngineSimUni, Cores: 4, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.Spec{Seed: 2, KeyDomain: 128})
	if err != nil {
		t.Fatal(err)
	}
	inputs := gen.Take(tuples)

	var results []stream.Result
	done := make(chan struct{})
	go drainAll(c, &results, done)
	for off := 0; off < len(inputs); off += batchSz {
		if err := c.SendBatch(inputs[off : off+batchSz]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if len(results) == 0 {
		t.Fatal("no results from simulated engine")
	}
	if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, results); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndBiFlow drives the software handshake join over the socket.
// Bi-flow is oracle-exact only under its relaxed semantics, so this test
// checks transport-level consistency (server and client agree on counts)
// rather than the multiset.
func TestEndToEndBiFlow(t *testing.T) {
	_, addr := startServer(t, Config{})
	c, err := Dial(addr, wire.OpenConfig{Engine: wire.EngineSoftBi, Cores: 4, Window: 128})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.Spec{Seed: 3, KeyDomain: 64})
	if err != nil {
		t.Fatal(err)
	}
	var results []stream.Result
	done := make(chan struct{})
	go drainAll(c, &results, done)
	const tuples = 4000
	inputs := gen.Take(tuples)
	for off := 0; off < tuples; off += 100 {
		if err := c.SendBatch(inputs[off : off+100]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if st.TuplesIn != tuples || st.BatchesIn != tuples/100 {
		t.Errorf("stats %+v, want %d tuples in %d batches", st, tuples, tuples/100)
	}
	if uint64(len(results)) != st.ResultsOut || len(results) == 0 {
		t.Errorf("client received %d results, server reports %d", len(results), st.ResultsOut)
	}
}

// TestBackpressureBlocksSender exhausts the credit window: with a tiny
// credit budget, an all-matching workload (result volume ≫ every buffer
// on the path), and a client that does not drain results, SendBatch must
// block; once a drainer starts, the pipeline must complete.
func TestBackpressureBlocksSender(t *testing.T) {
	_, addr := startServer(t, Config{InitialCredits: 2})
	const window = 2048
	c, err := Dial(addr, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 2, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	if c.Credits() != 2 {
		t.Fatalf("credit window %d, want 2", c.Credits())
	}

	// Every tuple carries the same key, so each arrival matches the whole
	// opposite window: ~window results per tuple once warm.
	batch := make([]core.Input, 256)
	for i := range batch {
		side := stream.SideR
		if i%2 == 1 {
			side = stream.SideS
		}
		batch[i] = core.Input{Side: side, Tuple: stream.Tuple{Key: 7}}
	}

	const totalBatches = 24
	var sent atomic.Int64
	sendDone := make(chan error, 1)
	go func() {
		for i := 0; i < totalBatches; i++ {
			if err := c.SendBatch(batch); err != nil {
				sendDone <- err
				return
			}
			sent.Add(1)
		}
		sendDone <- nil
	}()

	// Wait for the sender to stall: progress stops while batches remain.
	deadline := time.Now().Add(15 * time.Second)
	stalled := false
	for time.Now().Before(deadline) {
		before := sent.Load()
		time.Sleep(300 * time.Millisecond)
		if after := sent.Load(); after == before && after < totalBatches {
			stalled = true
			break
		}
	}
	if !stalled {
		t.Fatal("sender never blocked on exhausted credits")
	}
	select {
	case err := <-sendDone:
		t.Fatalf("sender finished while it should be blocked (err=%v)", err)
	default:
	}

	// Start draining: credits flow again and the sender must finish.
	var drained atomic.Int64
	drainStop := make(chan struct{})
	go func() {
		for range c.Results() {
			drained.Add(1)
		}
		close(drainStop)
	}()
	if err := <-sendDone; err != nil {
		t.Fatalf("sender failed after drain started: %v", err)
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	<-drainStop
	if st.TuplesIn != totalBatches*uint64(len(batch)) {
		t.Errorf("tuples in %d, want %d", st.TuplesIn, totalBatches*len(batch))
	}
	if drained.Load() == 0 || uint64(drained.Load()) != st.ResultsOut {
		t.Errorf("drained %d results, server reports %d", drained.Load(), st.ResultsOut)
	}
}

// TestConcurrentSessions opens many sessions in parallel, each pushing a
// workload through its own engine and closing; run under -race this is
// the shutdown/lifecycle race test for both the server session machinery
// and the softjoin Close/Wait paths.
func TestConcurrentSessions(t *testing.T) {
	srv, addr := startServer(t, Config{InitialCredits: 4})
	const (
		sessions = 12
		rounds   = 2
	)
	var wg sync.WaitGroup
	errs := make(chan error, sessions*rounds)
	for round := 0; round < rounds; round++ {
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				engines := []wire.EngineKind{wire.EngineSoftUni, wire.EngineSoftBi}
				cfg := wire.OpenConfig{Engine: engines[seed%2], Cores: 2, Window: 64}
				c, err := Dial(addr, cfg)
				if err != nil {
					errs <- err
					return
				}
				gen, err := workload.NewGenerator(workload.Spec{Seed: seed, KeyDomain: 32})
				if err != nil {
					errs <- err
					return
				}
				done := make(chan struct{})
				go func() {
					for range c.Results() {
					}
					close(done)
				}()
				for b := 0; b < 6; b++ {
					if err := c.SendBatch(gen.Take(100)); err != nil {
						errs <- err
						return
					}
				}
				if _, err := c.Close(); err != nil {
					errs <- err
					return
				}
				<-done
			}(int64(round*sessions + i))
		}
		wg.Wait()
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// A client's Close returns on the Closed frame, which the session
	// writes just before it retires.
	waitFor(t, "every session to be retired", func() bool { return srv.ProcessStats().SessionsActive == 0 })
	m := srv.Metrics()
	if len(m) != sessions*rounds {
		t.Fatalf("metrics report %d sessions, want %d", len(m), sessions*rounds)
	}
	for _, sm := range m {
		if sm.Open {
			t.Errorf("session %d still open after close", sm.ID)
		}
		if sm.TuplesIn != 600 || sm.BatchesIn != 6 {
			t.Errorf("session %d: %d tuples / %d batches, want 600/6", sm.ID, sm.TuplesIn, sm.BatchesIn)
		}
		if sm.AvgBatchLatency <= 0 || sm.MaxBatchLatency < sm.AvgBatchLatency {
			t.Errorf("session %d: implausible batch latency avg=%v max=%v", sm.ID, sm.AvgBatchLatency, sm.MaxBatchLatency)
		}
	}
}

// TestRejectedConfigs exercises the error path of the handshake.
func TestRejectedConfigs(t *testing.T) {
	_, addr := startServer(t, Config{})
	bad := []wire.OpenConfig{
		{Engine: wire.EngineSimUni, Cores: 3, Window: 64}, // sim window must divide across cores
	}
	for _, cfg := range bad {
		if _, err := Dial(addr, cfg); err == nil {
			t.Errorf("Dial with %+v succeeded, want rejection", cfg)
		}
	}
	// Client-side validation fires before any connection is made.
	if _, err := Dial(addr, wire.OpenConfig{Engine: 99, Cores: 1, Window: 1}); err == nil {
		t.Error("invalid engine kind accepted")
	}
	if _, err := Dial(addr, wire.OpenConfig{Engine: wire.EngineSimUni, Cores: 2, Window: 1 << 20}); err == nil {
		t.Error("oversized sim window accepted")
	}
}

// TestIdleTimeout verifies that a silent session is reaped by the read
// deadline.
func TestIdleTimeout(t *testing.T) {
	srv, addr := startServer(t, Config{IdleTimeout: 200 * time.Millisecond})
	c, err := Dial(addr, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		m := srv.Metrics()
		if len(m) == 1 && !m[0].Open {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	m := srv.Metrics()
	if len(m) != 1 || m[0].Open {
		t.Fatalf("session not reaped by idle timeout: %+v", m)
	}
	// The client sees the session die; subsequent sends must fail rather
	// than hang.
	errSeen := false
	for i := 0; i < 50 && !errSeen; i++ {
		if err := c.SendBatch([]core.Input{{Side: stream.SideR}}); err != nil {
			errSeen = true
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !errSeen {
		t.Error("SendBatch kept succeeding after server reaped the session")
	}
}

// TestMidFrameStallIsTimeout: a peer that stops sending, whether between
// frames or inside one, is a deadline expiry. The handshake counts it
// under the "timeout" reject reason (not "io"), and an open session gets
// the "idle timeout" Error frame before the connection closes. The reader
// wraps a deadline that fires inside a frame, so only an errors.As check
// sees the timeout under it.
func TestMidFrameStallIsTimeout(t *testing.T) {
	frameBytes := func(write func(*wire.Writer) error) []byte {
		var buf bytes.Buffer
		if err := write(wire.NewWriter(&buf)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	open := wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 16}
	openFrame := frameBytes(func(w *wire.Writer) error { return w.WriteOpen(open) })
	batchFrame := frameBytes(func(w *wire.Writer) error {
		return w.WriteBatch(0, []core.Input{{Side: stream.SideR}, {Side: stream.SideS}})
	})
	// prefix cuts a frame after its type byte, its header, or half its
	// payload; "silent" sends nothing at all.
	prefix := func(frame []byte, cut string) []byte {
		size, n := binary.Uvarint(frame[1:])
		switch cut {
		case "silent":
			return nil
		case "type byte only":
			return frame[:1]
		case "header only":
			return frame[:1+n]
		default: // partial payload
			return frame[:1+n+int(size)/2]
		}
	}
	const stall = 200 * time.Millisecond
	for _, cut := range []string{"silent", "type byte only", "header only", "partial payload"} {
		t.Run("handshake/"+cut, func(t *testing.T) {
			srv, addr := startServer(t, Config{HandshakeTimeout: stall})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(prefix(openFrame, cut)); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for len(srv.rejectCounts()) == 0 && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if got := srv.rejectCounts(); got[rejectTimeout] != 1 || len(got) != 1 {
				t.Fatalf("rejects = %v, want exactly one %q", got, rejectTimeout)
			}
		})
		t.Run("idle/"+cut, func(t *testing.T) {
			_, addr := startServer(t, Config{IdleTimeout: stall})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Write(openFrame); err != nil {
				t.Fatal(err)
			}
			r := wire.NewReader(conn)
			if f, err := r.ReadFrame(); err != nil || f.Type != wire.FrameOpenAck {
				t.Fatalf("open-ack: %v frame, err %v", f.Type, err)
			}
			if _, err := conn.Write(prefix(batchFrame, cut)); err != nil {
				t.Fatal(err)
			}
			for {
				f, err := r.ReadFrame()
				if err != nil {
					t.Fatalf("connection ended without an Error frame: %v", err)
				}
				if f.Type == wire.FrameError {
					if msg := wire.DecodeError(f.Payload); !strings.Contains(msg, "idle timeout") {
						t.Fatalf("Error frame %q, want idle timeout", msg)
					}
					return
				}
			}
		})
	}
}

// TestShutdownRefusesNewSessions: after Shutdown, dials must be rejected.
func TestShutdownRefusesNewSessions(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()
	c, err := Dial(addr, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range c.Results() {
		}
	}()
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after shutdown", err)
	}
	if _, err := Dial(addr, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 16}); err == nil {
		t.Error("Dial succeeded after shutdown")
	}
}

// TestShutdownAbortsStuckSessions: a session that never closes is force-
// aborted once the shutdown context expires, and no goroutine is leaked
// waiting on it.
func TestShutdownAbortsStuckSessions(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	c, err := Dial(ln.Addr().String(), wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.conn.Close()
	// Client never sends Close; shutdown must expire its context, abort
	// the session, and still return.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown error = %v, want context.DeadlineExceeded", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
}
