package server

import (
	"crypto/sha256"
	"crypto/subtle"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"accelstream/internal/admission"
	"accelstream/internal/core"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// SessionMetrics is a point-in-time snapshot of one session.
type SessionMetrics struct {
	// ID is the server-assigned session identifier.
	ID uint64
	// Engine is the engine kind the session runs.
	Engine wire.EngineKind
	// Remote is the client address.
	Remote string
	// TuplesIn / BatchesIn count ingested input. BatchesIn counts Batch
	// frames, not engine pushes: small frames that arrived together share
	// one push but are counted (and credited) one by one.
	TuplesIn  uint64
	BatchesIn uint64
	// ResultsOut counts join results (matches) streamed back.
	ResultsOut uint64
	// ResultFrames counts Results frames written; with ResultsOut it
	// forms a histogram-style sum/count pair whose ratio is the mean
	// coalesced frame size.
	ResultFrames uint64
	// Backlog is the engine's undelivered-result queue depth.
	Backlog int
	// AvgBatchLatency / MaxBatchLatency measure, per Batch frame, the time
	// from the frame's decode to the engine accepting the push that carried
	// it (the least time the frame's credit is withheld). Avg is over
	// BatchesIn frames, so Avg ≤ Max.
	AvgBatchLatency time.Duration
	MaxBatchLatency time.Duration
	// Kernel is the concrete probe kernel the session's engine runs
	// ("hash" or "scan"); empty for engines without probe kernels.
	Kernel string
	// Tenant is the tenant identity the session is accounted under.
	Tenant string
	// Open reports whether the session is still live.
	Open bool
}

// session is one client connection and its engine.
type session struct {
	srv  *Server
	id   uint64
	conn net.Conn

	wmu sync.Mutex // serializes frame writes (reader acks vs writer results)
	w   *wire.Writer
	r   *wire.Reader

	eng    Engine
	engCfg wire.OpenConfig
	opened atomic.Bool
	live   atomic.Bool

	// lease is the session's hold on its tenant's admission quotas,
	// acquired during the handshake (before the engine is built) and
	// released at teardown. Written before opened publishes it.
	lease *admission.Lease

	tuplesIn     atomic.Uint64
	batchesIn    atomic.Uint64
	resultsOut   atomic.Uint64
	resultFrames atomic.Uint64
	latNanos     atomic.Uint64
	latMax       atomic.Uint64

	// lastCkpt is when this session last cut an automatic checkpoint;
	// touched only by the read-loop goroutine.
	lastCkpt time.Time

	// closing is latched (via closeOnce) when the session is being torn
	// down; throttle withholds select against it so shutdown never waits
	// out a rate debt.
	closing   chan struct{}
	closeOnce sync.Once
}

func newSession(srv *Server, id uint64, conn net.Conn) *session {
	s := &session{
		srv:     srv,
		id:      id,
		conn:    conn,
		w:       wire.NewWriter(conn),
		r:       wire.NewReader(conn),
		closing: make(chan struct{}),
	}
	s.live.Store(true)
	return s
}

// writeErrorFrame best-effort emits an Error frame on a raw connection
// (used for rejects before a session exists).
func writeErrorFrame(w io.Writer, msg string) {
	wire.NewWriter(w).WriteError(msg)
}

// sendLocked serializes one frame write under the session write lock.
func (s *session) send(f func(*wire.Writer) error) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return f(s.w)
}

// metrics snapshots the session counters.
func (s *session) metrics() SessionMetrics {
	m := SessionMetrics{
		ID:              s.id,
		Remote:          s.conn.RemoteAddr().String(),
		TuplesIn:        s.tuplesIn.Load(),
		BatchesIn:       s.batchesIn.Load(),
		ResultsOut:      s.resultsOut.Load(),
		ResultFrames:    s.resultFrames.Load(),
		MaxBatchLatency: time.Duration(s.latMax.Load()),
		Open:            s.live.Load(),
	}
	if m.BatchesIn > 0 {
		m.AvgBatchLatency = time.Duration(s.latNanos.Load() / m.BatchesIn)
	}
	// engCfg and eng are written once during the handshake; the opened
	// flag publishes them, so read them only after observing it.
	if s.opened.Load() {
		m.Engine = s.engCfg.Engine
		m.Tenant = s.lease.Tenant()
		if kr, ok := s.eng.(kernelReporter); ok {
			m.Kernel = kr.Kernel().String()
		}
		if m.Open {
			m.Backlog = s.eng.Backlog()
		}
	}
	return m
}

// abort force-closes the connection; the reader unblocks with an error
// and the normal teardown path runs. The closing signal also interrupts
// a throttle withhold in progress, so a deeply in-debt session cannot
// stall a drain for the remainder of its rate debt.
func (s *session) abort() {
	s.signalClose()
	s.conn.Close()
}

// signalClose latches the session's close signal.
func (s *session) signalClose() {
	s.closeOnce.Do(func() { close(s.closing) })
}

// maxCreditWithhold caps any single throttle withhold. Rate debt beyond
// the cap is not forgiven — it stays in the bucket and the next batches
// keep paying it down — but bounding each individual sleep keeps the read
// loop responsive (a multi-second uninterrupted sleep would also hold the
// batch credit hostage long past any client timeout).
const maxCreditWithhold = 5 * time.Second

// throttleWait blocks for the rate-shaping debt d (capped), or until the
// session is told to close, whichever comes first. A plain time.Sleep
// here was uninterruptible: a tenant deep in debt could stall graceful
// drain / SIGTERM teardown for the full debt duration.
func (s *session) throttleWait(d time.Duration) {
	if d > maxCreditWithhold {
		d = maxCreditWithhold
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.closing:
	}
}

// grantCredits writes one Credit frame returning the *pending withheld
// batch credits, if any, and releases them from the gauge. The read loop
// calls it whenever it would otherwise wait: before a read that may block
// (the buffer holds no whole next frame), before a throttle withhold and
// before any non-Batch frame. A run of small frames that arrived together
// is thus acknowledged with one write(2), while a frame larger than the
// read buffer can never be whole in it and is acknowledged on its own.
func (s *session) grantCredits(pending *int) bool {
	n := *pending
	if n == 0 {
		return true
	}
	err := s.send(func(w *wire.Writer) error { return w.WriteCredit(n) })
	s.srv.creditsHeld.Add(-int64(n))
	*pending = 0
	if err != nil {
		s.srv.logf("session %d: writing credit: %v", s.id, err)
		return false
	}
	return true
}

// fail sends a best-effort Error frame and records the cause.
func (s *session) fail(msg string) {
	s.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	s.send(func(w *wire.Writer) error { return w.WriteError(msg) })
}

// run owns the session from handshake to teardown.
func (s *session) run() {
	defer s.live.Store(false)
	defer s.conn.Close()
	// The admission lease is acquired mid-handshake; release it on every
	// exit path (including handshake failures after the gate).
	defer func() {
		if s.lease != nil {
			s.lease.Release()
		}
	}()

	if err := s.handshake(); err != nil {
		s.srv.logf("session %d: handshake failed: %v", s.id, err)
		return
	}
	s.srv.logf("session %d: open from %s (%v, %d cores, window %d, tenant %s)",
		s.id, s.conn.RemoteAddr(), s.engCfg.Engine, s.engCfg.Cores, s.engCfg.Window, s.lease.Tenant())

	// Writer: stream engine results back, a batch at a time.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.pumpResults()
	}()

	mode := s.readLoop()

	// Stop the engine. Close flushes in-flight work, after which its
	// output closes and the writer finishes streaming.
	if err := s.eng.Close(); err != nil {
		s.srv.logf("session %d: engine close: %v", s.id, err)
	}
	<-writerDone

	// Persist the terminal window state (the SIGTERM-drain / crash-restart
	// snapshot) before any closing frames: the engine is drained and every
	// result has been handed to the connection.
	s.finalCheckpoint(mode)

	if mode != closeAbort {
		st := wire.Stats{
			TuplesIn:   s.tuplesIn.Load(),
			BatchesIn:  s.batchesIn.Load(),
			ResultsOut: s.resultsOut.Load(),
		}
		s.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
		if err := s.send(func(w *wire.Writer) error { return w.WriteClosed(st) }); err != nil {
			s.srv.logf("session %d: writing closed frame: %v", s.id, err)
		}
	}
	m := s.metrics()
	s.srv.logf("session %d: closed (graceful=%v): %d tuples in / %d batches, %d results out, avg batch latency %v",
		s.id, mode != closeAbort, m.TuplesIn, m.BatchesIn, m.ResultsOut, m.AvgBatchLatency)
}

// sessionWindowBytes is the window-memory cost one session is accounted
// for by the admission controller: two sliding windows of Window tuples,
// 16 bytes each (core.Input's key+value pair).
func sessionWindowBytes(cfg wire.OpenConfig) int64 {
	return 2 * int64(cfg.Window) * 16
}

// reject answers a failed handshake with a typed OpenAck rejection: the
// reject code plus an optional retry-after hint.
func (s *session) reject(code wire.RejectCode, retryAfter time.Duration) {
	s.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	s.send(func(w *wire.Writer) error {
		return w.WriteOpenAck(wire.OpenAck{Reject: code, RetryAfter: retryAfter})
	})
}

// tokensMatch compares a presented auth token against the configured one
// in constant time. Both sides are hashed first, so neither the compare
// duration nor an early length check leaks anything about the secret.
func tokensMatch(got, want string) bool {
	gh := sha256.Sum256([]byte(got))
	wh := sha256.Sum256([]byte(want))
	return subtle.ConstantTimeCompare(gh[:], wh[:]) == 1
}

// handshake reads and validates the Open frame, authenticates the session
// when the server requires a token, and starts the engine. Every failure
// path classifies itself into the sessions_rejected_total reason set.
func (s *session) handshake() error {
	s.conn.SetReadDeadline(time.Now().Add(s.srv.cfg.HandshakeTimeout))
	f, err := s.r.ReadFrame()
	if err != nil {
		// On a TLS listener the handshake runs lazily under this same
		// read, so a plaintext or mis-configured client surfaces here
		// with the TLS handshake incomplete.
		switch {
		case isTimeout(err):
			s.srv.countReject(rejectTimeout)
		case isIncompleteTLS(s.conn):
			s.srv.countReject(rejectTLS)
		default:
			s.srv.countReject(rejectIO)
		}
		return err
	}
	if f.Type != wire.FrameOpen {
		s.srv.countReject(rejectProtocol)
		s.fail("expected open frame")
		return fmt.Errorf("first frame is %v, want open", f.Type)
	}
	cfg, err := wire.DecodeOpen(f.Payload)
	if err != nil {
		s.srv.countReject(rejectBadOpen)
		s.fail(err.Error())
		return err
	}
	if want := s.srv.cfg.AuthToken; want != "" {
		if cfg.AuthToken == "" {
			s.srv.countReject(rejectNoToken)
			s.reject(wire.RejectUnauthorized, 0)
			return fmt.Errorf("session sent no auth token")
		}
		if !tokensMatch(cfg.AuthToken, want) {
			s.srv.countReject(rejectBadToken)
			s.reject(wire.RejectUnauthorized, 0)
			return fmt.Errorf("session sent a bad auth token")
		}
	}
	// Admission gate: resolve the tenant identity and charge the session
	// against its quotas before any engine memory is committed. Over-limit
	// opens fail fast here with a typed reject code and retry hint.
	tenant := admission.DeriveTenant(cfg.Tenant, cfg.AuthToken)
	lease, rej := s.srv.adm.Admit(tenant, sessionWindowBytes(cfg))
	if rej != nil {
		s.srv.countReject(rej.Code.String())
		s.reject(rej.Code, rej.RetryAfter)
		return fmt.Errorf("tenant %q: %v", tenant, rej)
	}
	s.lease = lease
	// Server-wide probe-kernel default: sessions that left the kernel on
	// auto inherit the operator's `-probe-kernel` choice. Only soft-uni
	// engines have probe kernels, and explicit session choices win.
	if cfg.Engine == wire.EngineSoftUni && cfg.ProbeKernel == stream.KernelAuto {
		cfg.ProbeKernel = s.srv.cfg.ProbeKernel
	}
	build := buildEngine
	if s.srv.cfg.NewEngine != nil {
		build = func(cfg wire.OpenConfig) (Engine, error) {
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			return s.srv.cfg.NewEngine(cfg)
		}
	}
	// Restore path: when a loaded checkpoint matches this session's shape,
	// build the engine with the snapshot's arrival counters so the client
	// replays only the post-snapshot suffix of the streams.
	restored := s.srv.takeRestored(cfg)
	if restored != nil {
		cfg.BaseSeqR = restored.Meta.SeqR
		cfg.BaseSeqS = restored.Meta.SeqS
	}
	eng, err := build(cfg)
	if err != nil {
		s.srv.countReject(rejectEngine)
		s.fail(err.Error())
		return err
	}
	if err := eng.Start(); err != nil {
		s.srv.countReject(rejectEngine)
		s.fail(err.Error())
		return err
	}
	if restored != nil {
		imp, ok := eng.(StateImporter)
		if !ok {
			err = fmt.Errorf("engine %v cannot import restored state", cfg.Engine)
		} else {
			err = imp.ImportState(restored.Tuples)
		}
		if err != nil {
			eng.Close()
			s.srv.countReject(rejectEngine)
			s.fail(err.Error())
			return fmt.Errorf("restoring checkpoint: %w", err)
		}
		s.srv.ckptRestores.Add(1)
		s.srv.ckptRestoreTuples.Add(uint64(len(restored.Tuples)))
		s.srv.logf("session %d: restored checkpoint at seqs (%d, %d), %d window tuples",
			s.id, restored.Meta.SeqR, restored.Meta.SeqS, len(restored.Tuples))
	}
	s.eng = eng
	s.engCfg = cfg
	s.opened.Store(true)
	ack := wire.OpenAck{Credits: s.srv.cfg.InitialCredits, Session: s.id}
	if restored != nil {
		ack.Resumed = true
		ack.ResumeSeqR = restored.Meta.SeqR
		ack.ResumeSeqS = restored.Meta.SeqS
	}
	return s.send(func(w *wire.Writer) error { return w.WriteOpenAck(ack) })
}

// closeMode is how a session's read loop ended, which selects the
// teardown path.
type closeMode int

const (
	// closeAbort: connection or protocol failure — tear down silently.
	closeAbort closeMode = iota
	// closeGraceful: FrameClose — drain and send the Closed frame.
	closeGraceful
	// closeExport: FrameRebalancePrepare — the window state was cut and
	// handed off; drain and send the Closed frame, persisting nothing.
	closeExport
)

// readLoop ingests frames until Close (graceful), RebalancePrepare
// (hand-off), or a connection/protocol error (abort).
func (s *session) readLoop() closeMode {
	// One decode buffer for the session's whole life: ingestBatches decodes
	// into its storage, and the Engine contract says PushBatch does not
	// retain the slice, so steady-state frame decoding never allocates.
	var decodeBuf []core.Input
	// imported accumulates the client-pushed state-chunk counts until the
	// client's RebalanceCommit closes the import.
	var imported wire.RebalanceInfo
	importDone := false
	// pending counts accepted Batch frames whose credits are not yet
	// written: one cumulative Credit frame acknowledges every batch the
	// read buffer held (see grantCredits). An aborting loop writes nothing
	// more but still hands the withheld credits back to the gauge.
	pending := 0
	defer func() { s.srv.creditsHeld.Add(-int64(pending)) }()
	for {
		if _, whole := s.r.FrameBuffered(); !whole && !s.grantCredits(&pending) {
			return closeAbort
		}
		if s.srv.cfg.IdleTimeout > 0 {
			s.conn.SetReadDeadline(time.Now().Add(s.srv.cfg.IdleTimeout))
		} else {
			s.conn.SetReadDeadline(time.Time{})
		}
		f, err := s.r.ReadFrame()
		if err != nil {
			if errors.Is(err, io.EOF) {
				s.srv.logf("session %d: client disconnected", s.id)
			} else if isTimeout(err) {
				s.fail("idle timeout")
				s.srv.logf("session %d: idle timeout", s.id)
			} else {
				s.srv.logf("session %d: read: %v", s.id, err)
			}
			return closeAbort
		}
		// Every frame but a Batch is a control-plane step the client may
		// wait on (CheckpointDone, RebalanceCommit, Closed): credits for the
		// batches before it go out first.
		if f.Type != wire.FrameBatch && !s.grantCredits(&pending) {
			return closeAbort
		}
		switch f.Type {
		case wire.FrameBatch:
			if !s.ingestBatches(f.Payload, &decodeBuf, &pending) {
				return closeAbort
			}
			// Each push boundary is a punctuation boundary — the cheapest
			// place to cut an interval-driven durable snapshot.
			s.maybeAutoCheckpoint()
		case wire.FrameCheckpoint, wire.FrameRebalancePrepare:
			// One state cut, two consumers. The engine quiesces at this
			// punctuation boundary and its window state, behind every
			// result the included input produced, streams back as
			// StateChunk frames closed by CheckpointDone. A Checkpoint
			// persists the cut when the server has a store and the session
			// resumes streaming; a RebalancePrepare hands the window to the
			// coordinator, so nothing is persisted and the session closes.
			handOff := f.Type == wire.FrameRebalancePrepare
			info, err := s.serveCut(!handOff)
			if err != nil {
				s.fail(err.Error())
				s.srv.logf("session %d: %v: %v", s.id, f.Type, err)
				return closeAbort
			}
			if err := s.send(func(w *wire.Writer) error { return w.WriteCheckpointDone(info) }); err != nil {
				s.srv.logf("session %d: writing checkpoint-done: %v", s.id, err)
				return closeAbort
			}
			if handOff {
				s.srv.logf("session %d: handed off %d R + %d S window tuples at seqs (%d, %d)",
					s.id, info.TuplesR, info.TuplesS, info.SeqR, info.SeqS)
				return closeExport
			}
		case wire.FrameClose:
			return closeGraceful
		case wire.FrameStateChunk:
			// Import path: a rebalance coordinator seeds a fresh session's
			// window before streaming resumes. Only before the first batch —
			// afterwards the engine's arrival counters have moved past the
			// punctuation boundary the state was sliced at.
			imp, ok := s.eng.(StateImporter)
			if !ok {
				s.fail(fmt.Sprintf("engine %v does not support state import", s.engCfg.Engine))
				return closeAbort
			}
			if s.batchesIn.Load() != 0 || importDone {
				s.fail("state chunk after streaming began")
				s.srv.logf("session %d: late state chunk", s.id)
				return closeAbort
			}
			tuples, err := wire.DecodeStateChunk(f.Payload)
			if err != nil {
				s.fail(err.Error())
				s.srv.logf("session %d: bad state chunk: %v", s.id, err)
				return closeAbort
			}
			if err := imp.ImportState(tuples); err != nil {
				s.fail(err.Error())
				s.srv.logf("session %d: state import: %v", s.id, err)
				return closeAbort
			}
			imported.Tally(tuples)
		case wire.FrameRebalanceCommit:
			// The client ends its state transfer; echo what this session
			// actually installed (counts observed, base counters configured)
			// so the coordinator can verify the hand-off before resuming.
			want, err := wire.DecodeRebalanceCommit(f.Payload)
			if err != nil {
				s.fail(err.Error())
				return closeAbort
			}
			imported.SeqR, imported.SeqS = s.engCfg.BaseSeqR, s.engCfg.BaseSeqS
			if importDone || want != imported {
				s.fail(fmt.Sprintf("rebalance commit mismatch: sent %+v, installed %+v", want, imported))
				s.srv.logf("session %d: rebalance commit mismatch: sent %+v, installed %+v", s.id, want, imported)
				return closeAbort
			}
			importDone = true
			if err := s.send(func(w *wire.Writer) error { return w.WriteRebalanceCommit(imported) }); err != nil {
				s.srv.logf("session %d: writing rebalance commit: %v", s.id, err)
				return closeAbort
			}
			s.srv.logf("session %d: imported %d R + %d S window tuples at base seqs (%d, %d)",
				s.id, imported.TuplesR, imported.TuplesS, imported.SeqR, imported.SeqS)
		case wire.FrameError:
			s.srv.logf("session %d: client error: %s", s.id, wire.DecodeError(f.Payload))
			return closeAbort
		default:
			s.fail(fmt.Sprintf("unexpected %v frame", f.Type))
			s.srv.logf("session %d: unexpected %v frame", s.id, f.Type)
			return closeAbort
		}
	}
}

// mergeBelow is the engine batch size under which the read loop keeps
// appending the Batch frames its read buffer already holds to one push.
// Each push pays a fixed hand-off (the reader to the engine's distributor
// to every core) that costs about as much as a 64-tuple batch's join work
// and is mostly amortized by 256 tuples (BenchmarkUniFlowPush's
// small-batch curve). A frame of mergeBelow tuples or more is always
// pushed alone, straight from its own decode.
const mergeBelow = 256

// ingestBatches hands a Batch frame's payload to the engine, together with
// the Batch frames behind it that the read buffer already holds: they are
// decoded back to back into one slice and pushed with one PushBatch — the
// input-side twin of pumpResults' coalescing and of the one Credit frame
// per drained read buffer. A merge ends, and the push happens, at the
// first of: the push reaching mergeBelow tuples, a next frame that is not
// a whole buffered Batch (no push spans a control frame), a frame that
// would take the push past MaxBatch (the frames before it go alone), and a
// frame whose rate-shaping charge comes back non-zero. Accounting stays
// per frame: each is one batch in, one credit and one decode-to-accept
// latency sample. It reports false when the session must abort.
func (s *session) ingestBatches(payload []byte, decodeBuf *[]core.Input, pending *int) bool {
	batch := (*decodeBuf)[:0]
	var (
		frames int           // Batch frames in batch
		first  time.Time     // when the first of them began decoding
		later  time.Duration // Σ over them of decode start − first
	)
	// push hands batch to the engine. PushBatch blocks while the engine (or
	// the result path back to this client) is saturated; the frames'
	// credits are withheld for at least that long, which is the
	// backpressure signal the client observes. The withheld interval is
	// visible process-wide as credits_outstanding.
	push := func() bool {
		s.srv.creditsHeld.Add(int64(frames))
		if err := s.eng.PushBatch(batch); err != nil {
			s.srv.creditsHeld.Add(-int64(frames))
			s.fail(err.Error())
			s.srv.logf("session %d: engine push: %v", s.id, err)
			return false
		}
		// Every frame waited from its own decode start; the first waited
		// longest.
		elapsed := time.Since(first)
		s.tuplesIn.Add(uint64(len(batch)))
		s.batchesIn.Add(uint64(frames))
		s.latNanos.Add(uint64((time.Duration(frames)*elapsed - later).Nanoseconds()))
		for {
			prev := s.latMax.Load()
			if uint64(elapsed.Nanoseconds()) <= prev || s.latMax.CompareAndSwap(prev, uint64(elapsed.Nanoseconds())) {
				break
			}
		}
		*pending += frames
		frames, later = 0, 0
		return true
	}
	var debt time.Duration
	for {
		start := time.Now()
		// Decode behind the frames already merged. DecodeBatchInto writes
		// into tail's storage when it has room, so the frame lands in place;
		// otherwise it returns fresh storage of exactly the frame's size,
		// which a lone frame keeps and a merge is copied onto once. The
		// session keeps the larger storage, so steady state decodes in place.
		tail := batch[len(batch):]
		_, more, err := wire.DecodeBatchInto(payload, s.srv.cfg.MaxBatch, tail)
		if err != nil {
			// The frames before the bad one are good: they reach the engine
			// and are credited before the Error frame.
			if frames > 0 && (!push() || !s.grantCredits(pending)) {
				return false
			}
			s.fail(err.Error())
			s.srv.logf("session %d: bad batch: %v", s.id, err)
			return false
		}
		if frames > 0 && len(batch)+len(more) > s.srv.cfg.MaxBatch {
			// The frames before this one go alone; it starts the next merge.
			if !push() {
				return false
			}
			batch = tail
		}
		switch {
		case cap(more) == cap(tail):
			batch = batch[:len(batch)+len(more)]
		case len(batch) == 0:
			batch = more
		default:
			batch = append(batch, more...)
		}
		if cap(batch) > cap(*decodeBuf) {
			*decodeBuf = batch[:0]
		}
		if frames == 0 {
			first = start
		}
		frames++
		later += start.Sub(first)
		// Rate shaping: charge the frame against the tenant's (and the
		// server's) token bucket as it is decoded. A debt closes the merge
		// and withholds this frame's credit; the frame itself is still
		// accepted — shaping delays credits, it never drops data.
		if debt = s.lease.Throttle(len(more)); debt > 0 || len(batch) >= mergeBelow {
			break
		}
		if typ, whole := s.r.FrameBuffered(); !whole || typ != wire.FrameBatch {
			break
		}
		f, err := s.r.ReadFrame() // served from the buffer
		if err != nil {
			// A buffered frame that fails its CRC: the good frames still
			// reach the engine, then the session aborts, as it would have
			// reading the bad frame on its own.
			s.srv.logf("session %d: read: %v", s.id, err)
			push()
			return false
		}
		payload = f.Payload
	}
	if !push() {
		return false
	}
	if debt > 0 {
		// The sleep happens while creditsHeld still counts the throttled
		// frame, so the backpressure gauge reflects throttling too. The
		// earlier frames' credits go out first: only the throttled frame's
		// credit is delayed.
		*pending--
		ok := s.grantCredits(pending)
		*pending++
		if !ok {
			return false
		}
		s.throttleWait(debt)
	}
	return true
}

// isIncompleteTLS reports whether conn is a TLS connection whose handshake
// never completed — the signature of a plaintext (or TLS-misconfigured)
// client hitting a TLS listener.
func isIncompleteTLS(conn net.Conn) bool {
	tc, ok := conn.(*tls.Conn)
	return ok && !tc.ConnectionState().HandshakeComplete
}

// isTimeout reports whether err is a network timeout (deadline expiry),
// also under the wrapping of a read that stalled inside a frame.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

const maxResultsPerFrame = 1024

// frameBatches pools the frame-sized result batches this package fills
// itself: a client's decoded Results frames and the coalesced batches of
// the fallback result source.
var frameBatches stream.ResultBatchPool

// resultSource returns the pull function pumpResults drains (the
// ResultBatcher contract: block only when asked to wait): the engine's own
// batch output when it offers the capability, otherwise a coalescing
// reader over its Results channel that packs whatever is immediately
// ready (up to one frame's worth) into a pooled batch. Either way the
// session is the output's only consumer.
func (s *session) resultSource() func(wait bool) (*stream.ResultBatch, bool) {
	if rb, ok := s.eng.(ResultBatcher); ok {
		return rb.NextResultBatch
	}
	results := s.eng.Results()
	return func(wait bool) (*stream.ResultBatch, bool) {
		var b *stream.ResultBatch
		for b == nil || len(b.Results) < maxResultsPerFrame {
			var r stream.Result
			var ok bool
			if wait && b == nil {
				r, ok = <-results
			} else {
				select {
				case r, ok = <-results:
				default:
					return b, true
				}
			}
			if !ok {
				return b, b != nil // a filled batch first; the next pull reports the close
			}
			if b == nil {
				b = frameBatches.Get()
			}
			b.Results = append(b.Results, r)
		}
		return b, true
	}
}

// coalesceBelow is the batch size under which a result batch shares a
// frame with its neighbours instead of being framed alone: copying a few
// hundred results into an open frame costs less than the write(2) and the
// peer wake-up a frame of its own would, while a batch that fills half a
// frame or more is encoded straight from its own storage. Many cores,
// small input batches or low selectivity produce batches on the small
// side; result-heavy input on the large side.
const coalesceBelow = maxResultsPerFrame / 2

// pumpResults is the session's result writer: it pulls result batches
// from the engine and writes them as Results frames of at most
// maxResultsPerFrame results — large batches straight from their own
// storage, small ones packed together for as long as more are ready. On
// a write failure it keeps draining (discarding) so engine Close can
// complete.
func (s *session) pumpResults() {
	next := s.resultSource()
	writeOK := true
	write := func(frame []stream.Result) {
		if writeOK {
			s.wmu.Lock()
			err := s.w.WriteResults(frame)
			s.wmu.Unlock()
			if err != nil {
				s.srv.logf("session %d: writing results: %v", s.id, err)
				writeOK = false
			}
		}
		// Counted after the write: the checkpoint durability barrier
		// (flushResults) reads resultsOut as "handed to the connection".
		// Still counted when the write failed or was skipped, so the
		// barrier terminates on a dead connection.
		s.resultsOut.Add(uint64(len(frame)))
		s.resultFrames.Add(1)
	}
	// open is the frame being packed from small batches; it goes out when
	// full, or as soon as the engine has nothing more ready.
	var open *stream.ResultBatch
	flush := func() {
		write(open.Results)
		open.Release()
		open = nil
	}
	for {
		b, ok := next(open == nil)
		if b == nil {
			if open != nil {
				flush()
			}
			if !ok {
				return
			}
			continue
		}
		for rest := b.Results; len(rest) > 0; {
			if open == nil && len(rest) >= coalesceBelow {
				n := min(len(rest), maxResultsPerFrame)
				write(rest[:n])
				rest = rest[n:]
				continue
			}
			if open == nil {
				open = frameBatches.Get()
			}
			n := min(len(rest), maxResultsPerFrame-len(open.Results))
			open.Results = append(open.Results, rest[:n]...)
			rest = rest[n:]
			if len(open.Results) == maxResultsPerFrame {
				flush()
			}
		}
		b.Release()
	}
}
