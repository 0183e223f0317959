package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/leakcheck"
	"accelstream/internal/wire"
)

// tapConn is the client side of a connection that records every Write.
// With stall set a Write is recorded, then waits until the channel closes;
// with fail set it fails without writing.
type tapConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
	stall  chan struct{}
	fail   error
}

func (c *tapConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	stall, fail := c.stall, c.fail
	if fail == nil {
		c.writes = append(c.writes, bytes.Clone(b))
	}
	c.mu.Unlock()
	if fail != nil {
		return 0, fail
	}
	if stall != nil {
		<-stall
	}
	return c.Conn.Write(b)
}

// taken returns the writes recorded since the last call and forgets them.
func (c *tapConn) taken() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.writes
	c.writes = nil
	return w
}

// written returns the bytes of the writes recorded since taken last ran.
func (c *tapConn) written() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes.Join(c.writes, nil)
}

func (c *tapConn) set(stall chan struct{}, fail error) {
	c.mu.Lock()
	c.stall, c.fail = stall, fail
	c.mu.Unlock()
}

// peer is the server side of a session the test answers frame by frame,
// so it decides exactly when, and how many, credits return.
type peer struct {
	conn net.Conn
	r    *wire.Reader
	w    *wire.Writer
}

// dialPeer opens a session over a tapConn against a peer that grants an
// 8-credit window. The handshake's write is not recorded.
func dialPeer(t *testing.T) (*Client, *tapConn, *peer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan *peer, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			t.Error(err)
			accepted <- nil
			return
		}
		p := &peer{conn: conn, r: wire.NewReader(conn), w: wire.NewWriter(conn)}
		if f, err := p.r.ReadFrame(); err != nil || f.Type != wire.FrameOpen {
			t.Errorf("peer: handshake read %v, %v", f.Type, err)
		}
		if err := p.w.WriteOpenAck(wire.OpenAck{Credits: 8, Session: 1}); err != nil {
			t.Error(err)
		}
		accepted <- p
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapConn{Conn: conn}
	c, err := open(tap, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 64}, DialTimeout)
	p := <-accepted
	if p != nil {
		t.Cleanup(func() { p.conn.Close() })
	}
	if err != nil || p == nil {
		t.Fatalf("open: %v", err)
	}
	tap.taken()
	return c, tap, p
}

// expect reads the client's next frames and fails unless they are n
// frames of type ft.
func (p *peer) expect(t *testing.T, ft wire.FrameType, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		f, err := p.r.ReadFrame()
		if err != nil || f.Type != ft {
			t.Fatalf("peer: frame %d is %v (%v), want %v", i, f.Type, err, ft)
		}
	}
}

func (p *peer) send(t *testing.T, emit func(w *wire.Writer) error) {
	t.Helper()
	if err := emit(p.w); err != nil {
		t.Fatal(err)
	}
}

// closeSession answers the client's Close frame with Closed; Close must
// then return cleanly.
func (p *peer) closeSession(t *testing.T, c *Client) {
	t.Helper()
	closed := make(chan error, 1)
	go func() {
		_, err := c.Close()
		closed <- err
	}()
	p.expect(t, wire.FrameClose, 1)
	p.send(t, func(w *wire.Writer) error { return w.WriteClosed(wire.Stats{}) })
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}

// waitParkedOnCredit waits until a goroutine is parked in SendBatch's
// credit wait, so the credit it gets next is one it waited for.
func waitParkedOnCredit(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	waitFor(t, "a SendBatch waiting for its credit", func() bool {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[select") && strings.Contains(g, "(*Client).SendBatch(") {
				return true
			}
		}
		return false
	})
}

// sendLone sends batch as frame seq and fails unless its frame alone was
// written before SendBatch returned.
func sendLone(c *Client, tap *tapConn, seq uint64, batch []core.Input) error {
	var want bytes.Buffer
	if err := wire.NewWriter(&want).WriteBatch(seq, batch); err != nil {
		return err
	}
	if err := c.SendBatch(batch); err != nil {
		return err
	}
	if got := tap.taken(); len(got) != 1 || !bytes.Equal(got[0], want.Bytes()) {
		return fmt.Errorf("batch %d: SendBatch returned after %d writes, want its frame in one", seq, len(got))
	}
	return nil
}

// fillWindow sends one lone batch per credit of the window. Each finds a
// credit free and the connection idle, so each is written on the
// caller's goroutine before SendBatch returns.
func fillWindow(t *testing.T, c *Client, tap *tapConn, batch []core.Input) {
	t.Helper()
	for i := 1; i <= c.Credits(); i++ {
		if err := sendLone(c, tap, uint64(i), batch); err != nil {
			t.Fatal(err)
		}
	}
}

// await returns the error ch delivers, failing t after 5 seconds.
func await(t *testing.T, what string, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return nil
	}
}

// TestLoneFrameWrittenBeforeSendBatchReturns: a frame with a credit free
// and the connection idle is written on the caller's goroutine, and so is
// one that waited for a grant of a single credit: no frame follows it to
// gather with.
func TestLoneFrameWrittenBeforeSendBatchReturns(t *testing.T) {
	leakcheck.Check(t)
	c, tap, p := dialPeer(t)
	batch := smallBatch(16)
	fillWindow(t, c, tap, batch)
	sent := make(chan error, 1)
	go func() { sent <- sendLone(c, tap, uint64(c.Credits()+1), batch) }()
	waitParkedOnCredit(t)
	p.send(t, func(w *wire.Writer) error { return w.WriteCredit(1) })
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	p.expect(t, wire.FrameBatch, c.Credits()+1)
	p.closeSession(t, c)
}

// TestQueuedFramesGather: a credit wait ended by a grant of the whole
// window queues the k frames it pays for. With the client's first queued
// write held until a Checkpoint is queued behind them, they leave in
// fewer than k writes, byte for byte the k lone frames, and the
// Checkpoint after them.
func TestQueuedFramesGather(t *testing.T) {
	leakcheck.Check(t)
	c, tap, p := dialPeer(t)
	batch := smallBatch(16)
	fillWindow(t, c, tap, batch)
	k := c.Credits()

	stall := make(chan struct{})
	tap.set(stall, nil)
	release := sync.OnceFunc(func() { close(stall) })
	defer release() // a send written directly would wait on the stall
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < k; i++ {
			if err := c.SendBatch(batch); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	waitParkedOnCredit(t)
	p.send(t, func(w *wire.Writer) error { return w.WriteCredit(k) })
	if err := await(t, "the window's sends", sent); err != nil {
		t.Fatal(err)
	}
	cut := make(chan error, 1)
	go func() {
		_, _, err := c.Checkpoint()
		cut <- err
	}()
	checkpoint := encode(t, func(w *wire.Writer) error { return w.WriteCheckpoint() })
	waitFor(t, "the Checkpoint queued behind the batches", func() bool {
		c.wmu.Lock()
		defer c.wmu.Unlock()
		// The first queued frames are in the stalled write, the rest wait.
		return bytes.HasSuffix(append(tap.written(), c.out.pending...), checkpoint)
	})
	release()
	p.expect(t, wire.FrameBatch, 2*k)
	p.expect(t, wire.FrameCheckpoint, 1)
	p.send(t, func(w *wire.Writer) error { return w.WriteCheckpointDone(wire.RebalanceInfo{}) })
	if err := <-cut; err != nil {
		t.Fatal(err)
	}
	writes := tap.taken()
	if len(writes) >= k {
		t.Errorf("%d queued frames left in %d writes, want fewer", k, len(writes))
	}
	want := encode(t, func(w *wire.Writer) error {
		for i := k + 1; i <= 2*k; i++ {
			if err := w.WriteBatch(uint64(i), batch); err != nil {
				return err
			}
		}
		return w.WriteCheckpoint()
	})
	if got := bytes.Join(writes, nil); !bytes.Equal(got, want) {
		t.Errorf("the queued frames wrote %d bytes that differ from %d lone frames and a Checkpoint (%d bytes)", len(got), k, len(want))
	}
	p.closeSession(t, c)
}

// TestFailedQueuedWriteEndsSession fails the client's first queued write:
// the next SendBatch, Err and Close report ErrConnectionLost, and the
// client's goroutines end.
func TestFailedQueuedWriteEndsSession(t *testing.T) {
	leakcheck.Check(t)
	c, tap, p := dialPeer(t)
	batch := smallBatch(16)
	fillWindow(t, c, tap, batch)
	tap.set(nil, errors.New("tap: write refused"))
	sent := make(chan error, 1)
	go func() { sent <- c.SendBatch(batch) }()
	waitParkedOnCredit(t)
	p.send(t, func(w *wire.Writer) error { return w.WriteCredit(c.Credits()) })
	if err := <-sent; err != nil {
		t.Fatalf("the queued SendBatch = %v, want nil: its write had not yet failed", err)
	}
	waitFor(t, "the failed write to end the session", func() bool { return c.Err() != nil })
	if err := c.Err(); !errors.Is(err, ErrConnectionLost) {
		t.Errorf("Err() = %v, want errors.Is(..., ErrConnectionLost)", err)
	}
	if err := c.SendBatch(batch); !errors.Is(err, ErrConnectionLost) {
		t.Errorf("SendBatch after the failed write = %v, want errors.Is(..., ErrConnectionLost)", err)
	}
	// The writer closed the connection, so Close returns without the
	// peer answering.
	closed := make(chan error, 1)
	go func() {
		_, err := c.Close()
		closed <- err
	}()
	if err := await(t, "Close", closed); !errors.Is(err, ErrConnectionLost) {
		t.Errorf("Close() = %v, want errors.Is(..., ErrConnectionLost)", err)
	}
}
