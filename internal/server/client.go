package server

import (
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// ErrConnectionLost reports that the session's connection failed before
// the server's Closed frame arrived: results already delivered are valid,
// but in-flight batches and undelivered results are gone. Surfaced
// (wrapped) by SendBatch, Err, and Close; test with errors.Is. The shard
// router keys its redial logic off this error.
var ErrConnectionLost = errors.New("server: connection lost")

// ErrUnauthorized reports that the server rejected the session's auth
// token (missing or mismatched) during the handshake. Returned (wrapped)
// by Dial; test with errors.Is. There is no point retrying with the same
// credentials, so the shard router does not redial through it.
var ErrUnauthorized = errors.New("server: unauthorized")

// ErrAdmissionDenied reports that the server's admission controller
// turned the session away: a tenant or server-wide quota (sessions,
// window memory, or ingest rate) was exhausted. Returned (wrapped) by
// Dial; test with errors.Is, and use errors.As against *AdmissionError
// for the typed reject code and retry-after hint. Unlike ErrUnauthorized,
// retrying after the hint can succeed — quota frees as sessions close.
var ErrAdmissionDenied = errors.New("server: admission denied")

// ErrCreditOverGrant reports that the server returned more batch credits
// than the session had batches awaiting acknowledgement — a protocol
// violation that would otherwise silently widen the credit window. The
// session fails with it (wrapped); test with errors.Is.
var ErrCreditOverGrant = errors.New("server: credit over-grant")

// AdmissionError is the typed admission rejection carried by a v2
// handshake's OpenAck. It wraps ErrAdmissionDenied.
type AdmissionError struct {
	// Code says which quota rejected the open (RejectQuotaSessions,
	// RejectQuotaMemory, or RejectRateLimited).
	Code wire.RejectCode
	// RetryAfter is the server's hint for when a retry may succeed.
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *AdmissionError) Error() string {
	return fmt.Sprintf("server: admission denied: %s (retry after %v)", e.Code, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrAdmissionDenied) hold.
func (e *AdmissionError) Unwrap() error { return ErrAdmissionDenied }

// Client is one session against a network-attached stream-join server.
// SendBatch may be called from one producer goroutine while another
// goroutine drains Results; Close flushes the session and returns the
// server's final statistics.
type Client struct {
	conn net.Conn

	// wmu serializes frame encoding: it guards w, out and batchSeq.
	wmu      sync.Mutex
	w        *wire.Writer
	out      outbox
	batchSeq uint64
	// writerDone closes when the writer goroutine (writeLoop) exits.
	writerDone chan struct{}

	credits chan struct{}
	// batches carries each decoded Results frame as one pooled batch;
	// results is the per-result view of it, started by the first Results
	// call.
	batches    chan *stream.ResultBatch
	results    stream.ResultsView
	readerDone chan struct{}

	mu        sync.Mutex
	err       error
	stats     wire.Stats
	closeSent bool

	// State-import plumbing: the base arrival counters this session was
	// opened with, and a one-slot channel delivering the server's
	// RebalanceCommit echo.
	baseSeqR, baseSeqS uint64
	commitCh           chan wire.RebalanceInfo

	// State-cut plumbing: while a Checkpoint or ExportState call is in
	// flight, incoming StateChunk frames accumulate into ckptTuples until
	// the CheckpointDone summary lands in ckptCh.
	ckptActive bool
	ckptTuples []core.Input
	ckptCh     chan wire.RebalanceInfo

	// resumeAck preserves the server's OpenAck: a resumed session carries
	// the checkpoint's arrival counters for the client to replay from.
	resumeAck wire.OpenAck

	// resultsRecv counts results delivered into the batch channel; a
	// shard router's coordinated snapshot uses it as its flush target.
	resultsRecv atomic.Uint64

	// Credit round-trip instrumentation: send times are queued FIFO and
	// matched to returning credits. The server acks batches in order and
	// at most Credits() are outstanding, so a ring of that size never
	// overflows: sendTime[(sendHead+i)%len] is the i-th oldest unacked
	// send, sendLen how many are unacked.
	rttMu    sync.Mutex
	sendTime []time.Time
	sendHead int
	sendLen  int
	rttSum   time.Duration
	rttMax   time.Duration
	rttCount uint64
	// lastGrant is the credit count of the latest Credit frame, set under
	// rttMu before its credits are handed out, so a SendBatch woken by
	// one of them reads that frame's count or a later one's.
	lastGrant int
}

// clientBatchDepth is how many decoded Results frames may wait between
// the reader and the consumer: with the server's 1024-result frames it
// buffers about the 4096 results the per-result channel used to.
const clientBatchDepth = 4

// DialTimeout is the default connection + handshake deadline used by
// Dial; override with DialOptions.Timeout.
const DialTimeout = 10 * time.Second

// DialOptions configures how a session is dialed, beyond the engine
// configuration carried in the Open frame. The zero value dials plaintext
// TCP with the default timeout.
type DialOptions struct {
	// TLS, when set, dials the server over TLS with this configuration
	// (the TLS handshake shares the connect timeout). Against a plaintext
	// server the handshake fails fast instead of hanging.
	TLS *tls.Config
	// Timeout bounds connecting plus the session handshake (TLS and Open
	// frame both); 0 means DialTimeout. A black-holed endpoint therefore
	// fails within the deadline instead of hanging indefinitely.
	Timeout time.Duration
}

// Dial connects to a stream-join server and opens a session with the
// given engine configuration, over plaintext TCP with default options.
func Dial(addr string, cfg wire.OpenConfig) (*Client, error) {
	return DialWith(addr, cfg, DialOptions{})
}

// DialWith connects to a stream-join server and opens a session with the
// given engine configuration and dial options.
func DialWith(addr string, cfg wire.OpenConfig, opts DialOptions) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = DialTimeout
	}
	dialer := &net.Dialer{Timeout: timeout}
	var conn net.Conn
	var err error
	if opts.TLS != nil {
		// tls.DialWithDialer runs the TLS handshake inside the dialer's
		// timeout, so a plaintext or stalled server cannot wedge the dial.
		conn, err = tls.DialWithDialer(dialer, "tcp", addr, opts.TLS)
	} else {
		conn, err = dialer.Dial("tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	return open(conn, cfg, timeout)
}

// open runs the session handshake over an established connection and
// starts the client's reader and writer goroutines. On failure it closes
// conn.
func open(conn net.Conn, cfg wire.OpenConfig, timeout time.Duration) (*Client, error) {
	c := &Client{
		conn:       conn,
		out:        outbox{conn: conn, wake: make(chan struct{}, 1)},
		writerDone: make(chan struct{}),
		batches:    make(chan *stream.ResultBatch, clientBatchDepth),
		readerDone: make(chan struct{}),
		baseSeqR:   cfg.BaseSeqR,
		baseSeqS:   cfg.BaseSeqS,
		commitCh:   make(chan wire.RebalanceInfo, 1),
		ckptCh:     make(chan wire.RebalanceInfo, 1),
	}
	c.w = wire.NewWriter(&c.out)
	conn.SetDeadline(time.Now().Add(timeout))
	if err := c.w.WriteOpen(cfg); err != nil {
		conn.Close()
		return nil, err
	}
	r := wire.NewReader(conn)
	f, err := r.ReadFrame()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("server: reading open-ack: %w", err)
	}
	switch f.Type {
	case wire.FrameOpenAck:
	case wire.FrameError:
		conn.Close()
		return nil, fmt.Errorf("server: session rejected: %s", wire.DecodeError(f.Payload))
	default:
		conn.Close()
		return nil, fmt.Errorf("server: unexpected %v frame during handshake", f.Type)
	}
	ack, err := wire.DecodeOpenAck(f.Payload)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if ack.Reject != wire.RejectNone {
		conn.Close()
		if ack.Reject == wire.RejectUnauthorized {
			return nil, ErrUnauthorized
		}
		return nil, &AdmissionError{Code: ack.Reject, RetryAfter: ack.RetryAfter}
	}
	c.resumeAck = ack
	if ack.Resumed {
		// The server restored a checkpoint into this session's engine: its
		// arrival counters resume at the snapshot's, and the client should
		// replay only the post-snapshot suffix of the streams.
		c.baseSeqR, c.baseSeqS = ack.ResumeSeqR, ack.ResumeSeqS
	}
	conn.SetDeadline(time.Time{})
	c.credits = make(chan struct{}, ack.Credits)
	c.sendTime = make([]time.Time, ack.Credits)
	for i := 0; i < ack.Credits; i++ {
		c.credits <- struct{}{}
	}
	go c.readLoop(r)
	go c.writeLoop()
	return c, nil
}

// Credits returns the credit-window capacity granted by the server.
func (c *Client) Credits() int { return cap(c.credits) }

// CreditsOutstanding returns how many batch credits are currently held by
// the server (batches sent but not yet acknowledged) — the per-session
// backpressure signal the shard router exports per shard.
func (c *Client) CreditsOutstanding() int {
	if c.credits == nil {
		return 0
	}
	return cap(c.credits) - len(c.credits)
}

// Err returns the first fatal session error, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *Client) setErr(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

// ended is the error a call meets once the session is over: its fatal
// error, or a plain "session closed" after a clean end.
func (c *Client) ended() error {
	if err := c.Err(); err != nil {
		return err
	}
	return errors.New("server: session closed")
}

// SendBatch ships one batch of side-tagged tuples. It blocks while the
// session's batch credits are exhausted — i.e. while the server-side
// engine (or the result path back to this client) is saturated — so
// engine backpressure propagates to the producer.
//
// A frame is written before SendBatch returns when no write is pending
// or in flight on the connection, unless SendBatch had to wait for its
// credit and the Credit frame that ended the wait granted more than one:
// then the frames those credits pay for follow this one back to back. Such a frame, and
// every frame sent while a write is pending or in flight, is queued, and
// the client's writer goroutine writes everything queued with one
// write(2): a producer that keeps the credit window full gathers its
// frames. A nil error therefore means the frame was written or queued
// behind a write in flight — never that the server has read it. A frame
// queued before the connection is lost is lost with the session, like
// bytes already in the socket buffer; the write's failure is reported by
// the next SendBatch, by Err and by Close.
func (c *Client) SendBatch(batch []core.Input) error {
	if len(batch) == 0 {
		return nil
	}
	waited := false
	select {
	case <-c.credits:
	default:
		waited = true
		select {
		case <-c.credits:
		case <-c.readerDone:
			return c.ended()
		}
	}
	now := time.Now()
	c.rttMu.Lock()
	if c.sendLen < len(c.sendTime) { // always, while the server honours the window
		c.sendTime[(c.sendHead+c.sendLen)%len(c.sendTime)] = now
		c.sendLen++
	}
	// A wait ended by a grant of several credits starts a gather: the
	// frames those credits pay for follow this one back to back.
	gather := waited && c.lastGrant > 1
	c.rttMu.Unlock()
	if err := c.lockOut(gather); err != nil {
		return err
	}
	c.batchSeq++
	err := c.w.WriteBatch(c.batchSeq, batch)
	c.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrConnectionLost, err)
		c.setErr(err)
		return err
	}
	return nil
}

// Batches returns the stream of join results as the reader decoded them:
// one pooled batch per Results frame, handed over with one channel
// operation. The receiver owns each batch and must Release it. The
// channel closes when the session ends (after Close's drain completes, or
// on a fatal error). Batches and Results are mutually exclusive
// consumers: whichever is used first owns the stream for the session's
// lifetime.
func (c *Client) Batches() <-chan *stream.ResultBatch { return c.batches }

// Results returns the stream of join results one at a time. The first
// call starts the goroutine that unrolls Batches; the channel closes when
// the session ends.
func (c *Client) Results() <-chan stream.Result { return c.results.Of(c.batches, 4096) }

// Close gracefully drains the session: it sends the Close frame, waits
// for the server to flush all in-flight work and report its final
// statistics, then releases the connection. Results must be consumed
// concurrently or the drain cannot complete.
func (c *Client) Close() (wire.Stats, error) {
	c.mu.Lock()
	alreadySent := c.closeSent
	c.closeSent = true
	c.mu.Unlock()
	// A session whose writer already failed or ended has nothing to send:
	// its error, or its clean end, stands.
	if !alreadySent && c.lockOut(false) == nil {
		err := c.w.WriteClose()
		c.wmu.Unlock()
		if err != nil {
			c.setErr(fmt.Errorf("%w: %v", ErrConnectionLost, err))
			c.conn.Close()
		}
	}
	<-c.readerDone
	c.conn.Close()
	<-c.writerDone
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats, c.err
}

// ImportState installs sliding-window state into the freshly opened
// session, before any batch has been sent: the tuples are streamed as
// StateChunk frames, closed with a RebalanceCommit carrying the per-side
// counts and this session's base arrival counters, and the call blocks
// until the server echoes the commit confirming the state is installed.
// Tuples must be in ascending per-side sequence order within this
// session's residue class (the form Client.ExportState emits, sliced).
func (c *Client) ImportState(tuples []core.Input) error {
	info := wire.RebalanceInfo{SeqR: c.baseSeqR, SeqS: c.baseSeqS}
	info.Tally(tuples)
	if err := c.lockOut(false); err != nil {
		return err
	}
	err := c.w.WriteState(tuples)
	if err == nil {
		err = c.w.WriteRebalanceCommit(info)
	}
	c.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrConnectionLost, err)
		c.setErr(err)
		return err
	}
	select {
	case echo := <-c.commitCh:
		if echo != info {
			return fmt.Errorf("server: state import mismatch: sent %+v, server installed %+v", info, echo)
		}
		return nil
	case <-c.readerDone:
		if err := c.Err(); err != nil {
			return err
		}
		return fmt.Errorf("server: session closed during state import")
	}
}

// ExportState terminally drains the session and takes over its window
// state: it sends the RebalancePrepare frame, after which the server cuts
// the window exactly as for Checkpoint (Results must be consumed
// concurrently), persists nothing, and closes the session with the
// Closed frame. The returned tuples are side-tagged with arrival sequence
// numbers, in ascending per-side order; the RebalanceInfo carries the
// per-side counts and the arrival counters at the punctuation boundary.
// An error — including a peer answering with an Error frame, or a
// connection lost before the Closed frame — means the hand-off did not
// complete, and the caller aborts.
func (c *Client) ExportState() ([]core.Input, wire.RebalanceInfo, error) {
	return c.cut(true)
}

// Resumed reports whether the server restored a durable checkpoint into
// this session's engine at open, and if so the per-side arrival counters
// the engine resumed at — the positions the client should replay the
// streams from.
func (c *Client) Resumed() (seqR, seqS uint64, ok bool) {
	return c.resumeAck.ResumeSeqR, c.resumeAck.ResumeSeqS, c.resumeAck.Resumed
}

// ResultsReceived returns how many results have been delivered into the
// batch channel. After Checkpoint returns, this count is exact for the
// pre-checkpoint input: results frames are ordered before the
// CheckpointDone frame on the wire, so a consumer that drains Batches
// can use the count as a flush barrier.
func (c *Client) ResultsReceived() uint64 { return c.resultsRecv.Load() }

// Checkpoint asks the server to cut a durable snapshot of this session's
// engine at the punctuation boundary defined by the frames sent so far,
// without closing the session. It blocks until the server acknowledges:
// by then every result the pre-checkpoint input produces has been
// delivered into Results (keep draining it concurrently, exactly as with
// Close), and the snapshot — when the server runs with a checkpoint
// directory — is durable on its disk. The returned tuples are the
// engine's resident window at the boundary (the server streams them back
// so a shard router can assemble a coordinated all-shard snapshot), and
// the RebalanceInfo carries the per-side counts and arrival counters.
// Must not overlap with ImportState, ExportState, or another Checkpoint.
func (c *Client) Checkpoint() ([]core.Input, wire.RebalanceInfo, error) {
	return c.cut(false)
}

// cut is the one state cut behind Checkpoint and ExportState: it sends
// Checkpoint, or RebalancePrepare for a terminal hand-off, collects the
// StateChunk frames the server streams back, and returns them with the
// CheckpointDone summary. A hand-off also waits for the session's Closed
// frame, so a connection lost after the summary still fails it.
func (c *Client) cut(handOff bool) ([]core.Input, wire.RebalanceInfo, error) {
	c.mu.Lock()
	if c.closeSent {
		c.mu.Unlock()
		return nil, wire.RebalanceInfo{}, fmt.Errorf("server: session already closing")
	}
	if c.ckptActive {
		c.mu.Unlock()
		return nil, wire.RebalanceInfo{}, fmt.Errorf("server: checkpoint already in flight")
	}
	c.ckptActive = true
	c.ckptTuples = nil
	c.closeSent = handOff
	c.mu.Unlock()
	if c.lockOut(false) == nil {
		var err error
		if handOff {
			err = c.w.WriteRebalancePrepare()
		} else {
			err = c.w.WriteCheckpoint()
		}
		c.wmu.Unlock()
		if err != nil {
			c.setErr(fmt.Errorf("%w: %v", ErrConnectionLost, err))
			c.conn.Close()
		}
	}
	var info wire.RebalanceInfo
	done := false
	select {
	case info = <-c.ckptCh:
		done = true
	case <-c.readerDone:
		// The summary may have landed just before the reader exited.
		select {
		case info = <-c.ckptCh:
			done = true
		default:
		}
	}
	if handOff {
		<-c.readerDone
		c.conn.Close()
		<-c.writerDone
	}
	c.mu.Lock()
	tuples, err := c.ckptTuples, c.err
	c.ckptTuples = nil
	c.ckptActive = false
	c.mu.Unlock()
	if !done || (handOff && err != nil) {
		if err == nil {
			err = fmt.Errorf("server: session closed during checkpoint")
		}
		return nil, wire.RebalanceInfo{}, err
	}
	if got := uint64(len(tuples)); got != info.TuplesR+info.TuplesS {
		return nil, wire.RebalanceInfo{}, fmt.Errorf("server: checkpoint announced %d tuples, carried %d",
			info.TuplesR+info.TuplesS, got)
	}
	return tuples, info, nil
}

// BatchRTT reports the observed credit round-trip time — send of a Batch
// frame to return of its credit, which includes network transit and the
// engine's ingest time — as (average, max, samples).
func (c *Client) BatchRTT() (avg, max time.Duration, samples uint64) {
	c.rttMu.Lock()
	defer c.rttMu.Unlock()
	if c.rttCount > 0 {
		avg = c.rttSum / time.Duration(c.rttCount)
	}
	return avg, c.rttMax, c.rttCount
}

// readLoop is the client's single reader: results, credits, and the
// session-ending Closed/Error frames all arrive here.
func (c *Client) readLoop(r *wire.Reader) {
	defer close(c.readerDone)
	defer close(c.batches)
	for {
		f, err := r.ReadFrame()
		if err != nil {
			c.setErr(fmt.Errorf("%w: %v", ErrConnectionLost, err))
			return
		}
		switch f.Type {
		case wire.FrameResults:
			b := frameBatches.Get()
			results, err := wire.DecodeResultsInto(f.Payload, b.Results)
			if err != nil {
				b.Release()
				c.setErr(err)
				return
			}
			b.Results = results
			c.batches <- b
			// Counted after the hand-off: a coordinated-snapshot flush
			// barrier reads this as "delivered into the channel".
			c.resultsRecv.Add(uint64(len(results)))
		case wire.FrameCredit:
			n, err := wire.DecodeCredit(f.Payload)
			if err != nil {
				c.setErr(err)
				return
			}
			now := time.Now()
			c.rttMu.Lock()
			if n > c.sendLen {
				unacked := c.sendLen
				c.rttMu.Unlock()
				c.setErr(fmt.Errorf("%w: %d credits returned with %d batches unacknowledged", ErrCreditOverGrant, n, unacked))
				return
			}
			c.lastGrant = n
			for i := 0; i < n; i++ {
				rtt := now.Sub(c.sendTime[c.sendHead])
				c.sendHead = (c.sendHead + 1) % len(c.sendTime)
				c.sendLen--
				c.rttSum += rtt
				c.rttCount++
				if rtt > c.rttMax {
					c.rttMax = rtt
				}
			}
			c.rttMu.Unlock()
			// Every unacknowledged send took a credit out of the channel, so
			// the check above leaves room for all n.
			for i := 0; i < n; i++ {
				c.credits <- struct{}{}
			}
		case wire.FrameStateChunk:
			tuples, err := wire.DecodeStateChunk(f.Payload)
			if err != nil {
				c.setErr(err)
				return
			}
			c.mu.Lock()
			active := c.ckptActive
			if active {
				c.ckptTuples = append(c.ckptTuples, tuples...)
			}
			c.mu.Unlock()
			if !active {
				c.setErr(fmt.Errorf("server: state chunk outside a checkpoint"))
				return
			}
		case wire.FrameRebalanceCommit:
			info, err := wire.DecodeRebalanceCommit(f.Payload)
			if err != nil {
				c.setErr(err)
				return
			}
			select {
			case c.commitCh <- info:
			default:
			}
		case wire.FrameCheckpointDone:
			info, err := wire.DecodeCheckpointDone(f.Payload)
			if err != nil {
				c.setErr(err)
				return
			}
			select {
			case c.ckptCh <- info:
			default:
			}
		case wire.FrameClosed:
			st, err := wire.DecodeClosed(f.Payload)
			if err != nil {
				c.setErr(err)
				return
			}
			c.mu.Lock()
			c.stats = st
			c.mu.Unlock()
			return
		case wire.FrameError:
			c.setErr(fmt.Errorf("server: %s", wire.DecodeError(f.Payload)))
			return
		default:
			c.setErr(fmt.Errorf("server: unexpected %v frame", f.Type))
			return
		}
	}
}

// outbox is the client connection's write side, the io.Writer under the
// session's frame encoder. A frame goes straight to the connection unless
// queue is set; then it is appended to pending, and writeLoop writes
// everything pending with one Write. The spare buffer is the one the last
// write emptied: the two are swapped, never reallocated, so a steady
// stream of queued frames does not allocate. The 8-credit window bounds
// the Batch frames pending. Guarded by Client.wmu.
type outbox struct {
	conn           net.Conn
	queue          bool // the frames being encoded join pending
	pending, spare []byte
	busy           bool          // writeLoop is writing a swapped-out buffer
	wake           chan struct{} // one slot: pending became non-empty
	err            error         // set when writeLoop ends; every later frame fails with it
}

func (o *outbox) Write(p []byte) (int, error) {
	if !o.queue {
		return o.conn.Write(p)
	}
	if len(o.pending) == 0 && !o.busy {
		select {
		case o.wake <- struct{}{}:
		default:
		}
	}
	o.pending = append(o.pending, p...)
	return len(p), nil
}

// lockOut takes the write lock for the frames the caller is about to
// encode and picks their path. They go straight to the connection, on the
// caller's goroutine, when no write is pending or in flight and the caller
// does not start a gather; otherwise they queue behind the frames already
// waiting. Either way frames leave in the order they were encoded. Once
// the writer has ended lockOut fails, without the lock, with the error it
// ended on.
func (c *Client) lockOut(gather bool) error {
	c.wmu.Lock()
	if err := c.out.err; err != nil {
		c.wmu.Unlock()
		return err
	}
	c.out.queue = gather || c.out.busy || len(c.out.pending) > 0
	return nil
}

// writeLoop is the client's writer goroutine: each time frames are
// queued it writes everything pending with one Write. It ends with the
// session, when the reader exits, or on its own write failure, which it
// records as ErrConnectionLost before closing the connection — the
// reader then exits, and with it a SendBatch waiting for a credit. A
// write that fails after the reader has already ended is no error: the
// session's own end, clean or not, stands.
func (c *Client) writeLoop() {
	defer close(c.writerDone)
	for {
		select {
		case <-c.out.wake:
		case <-c.readerDone:
			c.wmu.Lock()
			c.out.err = c.ended()
			c.wmu.Unlock()
			return
		}
		c.wmu.Lock()
		for len(c.out.pending) > 0 {
			buf := c.out.pending
			c.out.pending, c.out.spare = c.out.spare[:0], nil
			c.out.busy = true
			c.wmu.Unlock()
			_, err := c.conn.Write(buf)
			c.wmu.Lock()
			c.out.busy = false
			c.out.spare = buf[:0]
			if err != nil {
				select {
				case <-c.readerDone:
				default:
					c.setErr(fmt.Errorf("%w: %v", ErrConnectionLost, err))
				}
				c.out.err = c.ended()
				c.wmu.Unlock()
				c.conn.Close()
				return
			}
		}
		c.wmu.Unlock()
	}
}
