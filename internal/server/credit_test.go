package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// discardEngine accepts every batch and produces nothing: the session's
// read loop and credit protocol with no engine work behind them. Its
// empty snapshot lets a session serve Checkpoint frames. When pushes is
// set, it counts the PushBatch calls.
type discardEngine struct {
	out    chan stream.Result
	pushes *atomic.Uint64
}

func newDiscardEngine(wire.OpenConfig) (Engine, error) {
	return &discardEngine{out: make(chan stream.Result)}, nil
}

func (e *discardEngine) Start() error { return nil }
func (e *discardEngine) PushBatch([]core.Input) error {
	if e.pushes != nil {
		e.pushes.Add(1)
	}
	return nil
}
func (e *discardEngine) Results() <-chan stream.Result { return e.out }
func (e *discardEngine) Close() error                  { close(e.out); return nil }
func (e *discardEngine) Backlog() int                  { return 0 }
func (e *discardEngine) ResultsEmitted() uint64        { return 0 }
func (e *discardEngine) SnapshotState() ([]core.Input, uint64, uint64, error) {
	return nil, 0, 0, nil
}

// smallBatch is a batch of n distinct-key tuples, alternating sides.
func smallBatch(n int) []core.Input {
	in := make([]core.Input, n)
	for i := range in {
		side := stream.SideR
		if i%2 == 1 {
			side = stream.SideS
		}
		in[i] = core.Input{Side: side, Tuple: stream.Tuple{Key: uint32(i), Val: uint32(i)}}
	}
	return in
}

// encode returns the bytes of the frames emit writes, for one conn.Write.
func encode(t *testing.T, emit func(w *wire.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := emit(wire.NewWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// batchFrames encodes k Batch frames of n tuples each.
func batchFrames(t *testing.T, k, n int) []byte {
	batch := smallBatch(n)
	return encode(t, func(w *wire.Writer) error {
		for i := 0; i < k; i++ {
			if err := w.WriteBatch(uint64(i+1), batch); err != nil {
				return err
			}
		}
		return nil
	})
}

// rawSession is a session driven over a bare connection, so a test
// decides exactly how frames are laid onto the wire.
type rawSession struct {
	conn net.Conn
	r    *wire.Reader
}

func dialRaw(t *testing.T, addr string, cfg wire.OpenConfig) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	rs := &rawSession{conn: conn, r: wire.NewReader(conn)}
	rs.write(t, encode(t, func(w *wire.Writer) error { return w.WriteOpen(cfg) }))
	var ack wire.OpenAck
	rs.read(t, func(f wire.Frame, _ *tally) bool {
		if f.Type != wire.FrameOpenAck {
			t.Fatalf("handshake answered with %v", f.Type)
		}
		if ack, err = wire.DecodeOpenAck(f.Payload); err != nil || ack.Reject != wire.RejectNone {
			t.Fatalf("open refused: %+v, %v", ack, err)
		}
		return true
	})
	return rs
}

func (rs *rawSession) write(t *testing.T, b []byte) {
	t.Helper()
	if _, err := rs.conn.Write(b); err != nil {
		t.Fatal(err)
	}
}

// tally is what read saw: the credits granted, the Credit frames that
// carried them, and the results.
type tally struct {
	credits, frames int
	results         []stream.Result
}

// read consumes frames, tallying credits and results, until stop (called
// after each frame is tallied) says to stop. Every read shares one
// deadline, so a missing frame fails the test instead of hanging it.
func (rs *rawSession) read(t *testing.T, stop func(f wire.Frame, tl *tally) bool) tally {
	t.Helper()
	rs.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var tl tally
	for {
		f, err := rs.r.ReadFrame()
		if err != nil {
			t.Fatalf("after %d credits in %d frames: %v", tl.credits, tl.frames, err)
		}
		switch f.Type {
		case wire.FrameCredit:
			n, err := wire.DecodeCredit(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			tl.credits += n
			tl.frames++
		case wire.FrameResults:
			res, err := wire.DecodeResults(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			tl.results = append(tl.results, res...)
		case wire.FrameError:
			t.Fatalf("server error: %s", wire.DecodeError(f.Payload))
		}
		if stop(f, &tl) {
			return tl
		}
	}
}

// untilCredits stops once n credits have been granted.
func untilCredits(n int) func(wire.Frame, *tally) bool {
	return func(_ wire.Frame, tl *tally) bool { return tl.credits >= n }
}

// untilFrame stops at the first frame of type ft.
func untilFrame(ft wire.FrameType) func(wire.Frame, *tally) bool {
	return func(f wire.Frame, _ *tally) bool { return f.Type == ft }
}

// waitCreditsOutstanding polls the exposition until the server-wide
// withheld-credit gauge reads 0; the gauge drops just after the Credit
// frame is written, so a client can see the credit first.
func waitCreditsOutstanding(t *testing.T, srv *Server) {
	t.Helper()
	const want = "\nstreamd_credits_outstanding 0\n"
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec := httptest.NewRecorder()
		srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if strings.Contains(rec.Body.String(), want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("credits outstanding never returned to 0 (ProcessStats: %d)", srv.ProcessStats().CreditsOutstanding)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCumulativeCreditAcks pins when the session writes a Credit frame:
// once for every run of batches its read buffer held, never on a frame
// still arriving, per batch for frames larger than the read buffer, and
// always before a control frame's answer.
func TestCumulativeCreditAcks(t *testing.T) {
	srv, addr := startServer(t, Config{NewEngine: newDiscardEngine})
	cfg := wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 64}

	t.Run("pipelined", func(t *testing.T) {
		// 32 frames of 8 tuples are ~2.6 KB: one write, one buffer fill.
		const k = 32
		rs := dialRaw(t, addr, cfg)
		rs.write(t, batchFrames(t, k, 8))
		tl := rs.read(t, untilCredits(k))
		if tl.credits != k || tl.frames >= k {
			t.Fatalf("%d pipelined batches got %d credits in %d Credit frames; want exactly %d in fewer than %d frames",
				k, tl.credits, tl.frames, k, k)
		}
		waitCreditsOutstanding(t, srv)

		// Pipelined batches ahead of a Checkpoint or a Close are credited
		// before the answer; the exact totals also show no earlier phase
		// over-granted.
		rs.write(t, append(batchFrames(t, k, 8), encode(t, (*wire.Writer).WriteCheckpoint)...))
		if tl = rs.read(t, untilFrame(wire.FrameCheckpointDone)); tl.credits != k {
			t.Fatalf("%d credits before CheckpointDone, want %d", tl.credits, k)
		}
		rs.write(t, append(batchFrames(t, k, 8), encode(t, (*wire.Writer).WriteClose)...))
		if tl = rs.read(t, untilFrame(wire.FrameClosed)); tl.credits != k {
			t.Fatalf("%d credits before Closed, want %d", tl.credits, k)
		}
		waitCreditsOutstanding(t, srv)
	})

	t.Run("partial frame", func(t *testing.T) {
		// A whole frame followed by the head of the next: the whole one is
		// credited while the rest of the second is still in flight.
		rs := dialRaw(t, addr, cfg)
		two := batchFrames(t, 2, 64)
		head := len(two)/2 + 10
		rs.write(t, two[:head])
		if tl := rs.read(t, untilCredits(1)); tl.credits != 1 {
			t.Fatalf("first batch got %d credits while the second was partial, want 1", tl.credits)
		}
		time.Sleep(20 * time.Millisecond)
		rs.write(t, two[head:])
		if tl := rs.read(t, untilCredits(1)); tl.credits != 1 {
			t.Fatalf("completed batch got %d credits, want 1", tl.credits)
		}
		rs.write(t, encode(t, (*wire.Writer).WriteClose))
		if tl := rs.read(t, untilFrame(wire.FrameClosed)); tl.credits != 0 {
			t.Fatalf("%d extra credits before Closed", tl.credits)
		}
	})

	t.Run("frames over the read buffer", func(t *testing.T) {
		// 512 tuples are a 4.6 KB frame: never whole in the 4 KiB buffer,
		// so each is credited on its own, as before coalescing.
		const k = 4
		rs := dialRaw(t, addr, cfg)
		rs.write(t, batchFrames(t, k, 512))
		if tl := rs.read(t, untilCredits(k)); tl.credits != k || tl.frames != k {
			t.Fatalf("%d large batches got %d credits in %d frames, want one frame each", k, tl.credits, tl.frames)
		}
		rs.write(t, encode(t, (*wire.Writer).WriteClose))
		rs.read(t, untilFrame(wire.FrameClosed))
	})

	t.Run("abort with credits pending", func(t *testing.T) {
		// Batches accepted from the buffer, then a frame failing its CRC:
		// the session aborts with their credits unwritten, and must still
		// hand them back to the gauge.
		rs := dialRaw(t, addr, cfg)
		bad := batchFrames(t, 1, 8)
		bad[len(bad)-1] ^= 0xff
		rs.write(t, append(batchFrames(t, 4, 8), bad...))
		rs.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		for {
			if _, err := rs.r.ReadFrame(); err != nil {
				break // the server closed the session
			}
		}
		waitCreditsOutstanding(t, srv)
	})

	t.Run("client RTT samples", func(t *testing.T) {
		// One grant retiring several sends still yields one RTT sample
		// per batch, and the client's window refills exactly.
		const batches = 300
		c, err := Dial(addr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		batch := smallBatch(64)
		for i := 0; i < batches; i++ {
			if err := c.SendBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if _, _, n := c.BatchRTT(); n != batches {
			t.Fatalf("BatchRTT has %d samples for %d batches", n, batches)
		}
		if out := c.CreditsOutstanding(); out != 0 {
			t.Fatalf("client still missing %d credits after Close", out)
		}
		waitCreditsOutstanding(t, srv)
	})
}

// TestClientRejectsCreditOverGrant: a server returning more credits than
// the client has batches awaiting acknowledgement breaks the protocol;
// the session fails with ErrCreditOverGrant instead of dropping the
// surplus silently.
func TestClientRejectsCreditOverGrant(t *testing.T) {
	for _, tc := range []struct {
		name         string
		sends, grant int
	}{
		{"beyond sends", 1, 2},
		{"unsolicited", 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go fakeOverGrantServer(ln, tc.sends, tc.grant)
			c, err := Dial(ln.Addr().String(), wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 64})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.sends; i++ {
				if err := c.SendBatch(smallBatch(8)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.Close(); !errors.Is(err, ErrCreditOverGrant) {
				t.Fatalf("Close returned %v, want ErrCreditOverGrant", err)
			}
		})
	}
}

// fakeOverGrantServer answers one session: a 4-credit OpenAck, then,
// after reading sends Batch frames, a Credit(grant); it closes the session
// cleanly when asked, so a client that tolerates the surplus ends with no
// error rather than hanging.
func fakeOverGrantServer(ln net.Listener, sends, grant int) {
	conn, err := ln.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	r, w := wire.NewReader(conn), wire.NewWriter(conn)
	if f, err := r.ReadFrame(); err != nil || f.Type != wire.FrameOpen {
		return
	}
	w.WriteOpenAck(wire.OpenAck{Credits: 4, Session: 1})
	for i := 0; i < sends; i++ {
		if _, err := r.ReadFrame(); err != nil {
			return
		}
	}
	w.WriteCredit(grant)
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return
		}
		if f.Type == wire.FrameClose {
			w.WriteClosed(wire.Stats{})
			return
		}
	}
}

// creditCountingListener counts the Credit frames written on every
// connection it accepts. A session writes each frame with one Write, so
// the first byte of a Write is the frame type.
type creditCountingListener struct {
	net.Listener
	credits *atomic.Uint64
}

func (l creditCountingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return creditCountingConn{Conn: conn, credits: l.credits}, nil
}

type creditCountingConn struct {
	net.Conn
	credits *atomic.Uint64
}

func (c creditCountingConn) Write(b []byte) (int, error) {
	if len(b) > 0 && wire.FrameType(b[0]) == wire.FrameCredit {
		c.credits.Add(1)
	}
	return c.Conn.Write(b)
}

// writeCountingConn counts the client's writes.
type writeCountingConn struct {
	net.Conn
	writes *atomic.Uint64
}

func (c writeCountingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// BenchmarkSessionSmallBatch drives a loopback session with a discarding
// engine in a closed loop of SendBatch calls (the default 8-credit
// window), so the cost per batch is the client's send, the session's read
// loop and the credit round trip. It excludes the engine: a profile of it
// ranks only the transport, never the join core a real session feeds
// (BenchmarkUniFlowPush in internal/softjoin times that). It reports
// ns/batch, the Credit frames the server wrote per batch, the engine
// pushes per batch — both below 1 when small frames pipeline, exactly 1
// for frames larger than the session's 4 KiB read buffer — and the
// client's writes per batch, below 1 when a full credit window gathers
// its queued frames.
func BenchmarkSessionSmallBatch(b *testing.B) {
	for _, tuples := range []int{64, 512} {
		b.Run(fmt.Sprintf("tuples=%d", tuples), func(b *testing.B) {
			var pushes atomic.Uint64
			srv, err := New(Config{NewEngine: func(wire.OpenConfig) (Engine, error) {
				return &discardEngine{out: make(chan stream.Result), pushes: &pushes}, nil
			}})
			if err != nil {
				b.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			var credits atomic.Uint64
			go srv.Serve(creditCountingListener{Listener: ln, credits: &credits})
			defer srv.Shutdown(context.Background())
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			var writes atomic.Uint64
			c, err := open(writeCountingConn{Conn: conn, writes: &writes},
				wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 64}, DialTimeout)
			if err != nil {
				b.Fatal(err)
			}
			writes.Store(0) // the handshake's
			batch := smallBatch(tuples)
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if err := c.SendBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := c.Close(); err != nil {
				b.Fatal(err)
			}
			elapsed := time.Since(start)
			b.StopTimer()
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N), "ns/batch")
			b.ReportMetric(float64(credits.Load())/float64(b.N), "credit_frames/batch")
			b.ReportMetric(float64(pushes.Load())/float64(b.N), "pushes/batch")
			b.ReportMetric(float64(writes.Load())/float64(b.N), "client_writes/batch")
		})
	}
}
