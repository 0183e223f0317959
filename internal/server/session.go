package server

import (
	"crypto/sha256"
	"crypto/subtle"
	"crypto/tls"
	"errors"
	"fmt"
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
	in  *ingest // the read side: frames in, batches to the engine, credits out

	eng    Engine
	engCfg wire.OpenConfig
	opened atomic.Bool
	live   atomic.Bool

	// lease is the session's hold on its tenant's admission quotas,
	// acquired during the handshake (before the engine is built) and
	// released at teardown. Written before opened publishes it.
	lease *admission.Lease

	resultsOut, resultFrames atomic.Uint64

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
		closing: make(chan struct{}),
	}
	// The engine and the lease are set during the handshake, before the
	// read loop first pushes or charges.
	s.in = &ingest{
		r:        wire.NewReader(conn),
		maxBatch: srv.cfg.MaxBatch,
		held:     &srv.creditsHeld,
		arm:      s.armIdleDeadline,
		push:     func(b []core.Input) error { return s.eng.PushBatch(b) },
		credit:   func(n int) error { return s.send(func(w *wire.Writer) error { return w.WriteCredit(n) }) },
		charge:   func(n int) time.Duration { return s.lease.Throttle(n) },
		wait:     s.throttleWait,
		observe: func(d time.Duration) {
			srv.batchSeconds.Observe(d)
			s.lease.BatchSeconds().Observe(d)
		},
	}
	s.live.Store(true)
	return s
}

// send serializes one frame write under the session write lock.
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
		TuplesIn:        s.in.tuplesIn.Load(),
		BatchesIn:       s.in.batchesIn.Load(),
		ResultsOut:      s.resultsOut.Load(),
		ResultFrames:    s.resultFrames.Load(),
		MaxBatchLatency: time.Duration(s.in.latMax.Load()),
		Open:            s.live.Load(),
	}
	if m.BatchesIn > 0 {
		m.AvgBatchLatency = time.Duration(s.in.latNanos.Load() / m.BatchesIn)
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
	s.closeOnce.Do(func() { close(s.closing) })
	s.conn.Close()
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
	t := time.NewTimer(min(d, maxCreditWithhold))
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.closing:
	}
}

// armIdleDeadline bounds the next frame read by the idle timeout, if any.
func (s *session) armIdleDeadline() {
	var d time.Time
	if s.srv.cfg.IdleTimeout > 0 {
		d = time.Now().Add(s.srv.cfg.IdleTimeout)
	}
	s.conn.SetReadDeadline(d)
}

// sessionError is why a session ends early. Every one, from the
// handshake, the read loop or the ingest, reaches end.
type sessionError struct {
	reason string        // sessions_rejected_total label; handshake failures only
	msg    string        // the Error frame's text; empty writes none
	reject *wire.OpenAck // a typed OpenAck rejection to write instead
	err    error         // what the log line says
}

func (e *sessionError) Error() string { return e.err.Error() }

// failf ends a session with msg as its Error frame; the log line reads
// format.
func failf(msg, format string, args ...any) error {
	return &sessionError{msg: msg, err: fmt.Errorf(format, args...)}
}

// closef ends a session without a word to the client.
func closef(format string, args ...any) error {
	return &sessionError{err: fmt.Errorf(format, args...)}
}

// end is the one abort path: it counts a handshake reject, writes the
// client's last frame — an Error frame or a typed OpenAck rejection, best
// effort — and logs the line. Any other error is only logged.
func (s *session) end(err error) {
	var se *sessionError
	if errors.As(err, &se) && se.reason != "" {
		s.srv.countReject(se.reason)
	}
	if se != nil && (se.msg != "" || se.reject != nil) {
		s.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		s.send(se.reply)
	}
	s.srv.logf("session %d: %v", s.id, err)
}

// reply writes the client's last frame.
func (e *sessionError) reply(w *wire.Writer) error {
	if e.reject != nil {
		return w.WriteOpenAck(*e.reject)
	}
	return w.WriteError(e.msg)
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
		s.end(fmt.Errorf("handshake failed: %w", err))
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

	handOff, err := s.readLoop()
	if err != nil {
		s.end(err)
	}

	// Persist the terminal window state (the SIGTERM-drain / crash-restart
	// snapshot) before the engine closes: no input follows, and the writer
	// still runs, so the cut's result-flush barrier holds. An engine that
	// fans out to other processes (a shard router) can only cut while its
	// sessions are open.
	s.finalCheckpoint(handOff)

	// Stop the engine. Close flushes in-flight work, after which its
	// output closes and the writer finishes streaming.
	if err := s.eng.Close(); err != nil {
		s.srv.logf("session %d: engine close: %v", s.id, err)
	}
	<-writerDone

	m := s.metrics()
	if err == nil {
		st := wire.Stats{TuplesIn: m.TuplesIn, BatchesIn: m.BatchesIn, ResultsOut: m.ResultsOut}
		s.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
		if err := s.send(func(w *wire.Writer) error { return w.WriteClosed(st) }); err != nil {
			s.srv.logf("session %d: writing closed frame: %v", s.id, err)
		}
	}
	s.srv.logf("session %d: closed (graceful=%v): %d tuples in / %d batches, %d results out, avg batch latency %v",
		s.id, err == nil, m.TuplesIn, m.BatchesIn, m.ResultsOut, m.AvgBatchLatency)
}

// sessionWindowBytes is the window-memory cost one session is accounted
// for by the admission controller: two sliding windows of Window tuples,
// 16 bytes each (core.Input's key+value pair).
func sessionWindowBytes(cfg wire.OpenConfig) int64 {
	return 2 * int64(cfg.Window) * 16
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
// names its sessions_rejected_total reason.
func (s *session) handshake() error {
	s.conn.SetReadDeadline(time.Now().Add(s.srv.cfg.HandshakeTimeout))
	f, err := s.in.r.ReadFrame()
	if err != nil {
		// On a TLS listener the handshake runs lazily under this same
		// read, so a plaintext or mis-configured client surfaces here
		// with the TLS handshake incomplete.
		reason := rejectIO
		switch {
		case isTimeout(err):
			reason = rejectTimeout
		case isIncompleteTLS(s.conn):
			reason = rejectTLS
		}
		return &sessionError{reason: reason, err: err}
	}
	if f.Type != wire.FrameOpen {
		return &sessionError{reason: rejectProtocol, msg: "expected open frame",
			err: fmt.Errorf("first frame is %v, want open", f.Type)}
	}
	cfg, err := wire.DecodeOpen(f.Payload)
	if err != nil {
		return &sessionError{reason: rejectBadOpen, msg: err.Error(), err: err}
	}
	if want := s.srv.cfg.AuthToken; want != "" && !tokensMatch(cfg.AuthToken, want) {
		reason, err := rejectBadToken, errors.New("session sent a bad auth token")
		if cfg.AuthToken == "" {
			reason, err = rejectNoToken, errors.New("session sent no auth token")
		}
		return &sessionError{reason: reason, reject: &wire.OpenAck{Reject: wire.RejectUnauthorized}, err: err}
	}
	// Admission gate: resolve the tenant identity and charge the session
	// against its quotas before any engine memory is committed. Over-limit
	// opens fail fast here with a typed reject code and retry hint.
	tenant := admission.DeriveTenant(cfg.Tenant, cfg.AuthToken)
	lease, rej := s.srv.adm.Admit(tenant, sessionWindowBytes(cfg))
	if rej != nil {
		return &sessionError{reason: rej.Code.String(),
			reject: &wire.OpenAck{Reject: rej.Code, RetryAfter: rej.RetryAfter},
			err:    fmt.Errorf("tenant %q: %v", tenant, rej)}
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
		build = s.srv.cfg.NewEngine
	}
	// Restore path: when a loaded checkpoint matches this session's shape,
	// build the engine with the snapshot's arrival counters so the client
	// replays only the post-snapshot suffix of the streams.
	restored := s.srv.takeRestored(cfg)
	if restored != nil {
		cfg.BaseSeqR, cfg.BaseSeqS = restored.Meta.SeqR, restored.Meta.SeqS
	}
	var eng Engine
	if err = cfg.Validate(); err == nil {
		eng, err = build(cfg)
	}
	if err == nil {
		err = eng.Start()
	}
	if err != nil {
		return &sessionError{reason: rejectEngine, msg: err.Error(), err: err}
	}
	ack := wire.OpenAck{Credits: s.srv.cfg.InitialCredits, Session: s.id}
	if restored != nil {
		imp, ok := eng.(StateImporter)
		if !ok {
			err = fmt.Errorf("engine %v cannot import restored state", cfg.Engine)
		} else {
			err = imp.ImportState(restored.Tuples)
		}
		if err != nil {
			eng.Close()
			return &sessionError{reason: rejectEngine, msg: err.Error(), err: fmt.Errorf("restoring checkpoint: %w", err)}
		}
		s.srv.ckptRestores.Add(1)
		s.srv.ckptRestoreTuples.Add(uint64(len(restored.Tuples)))
		s.srv.logf("session %d: restored checkpoint at seqs (%d, %d), %d window tuples",
			s.id, restored.Meta.SeqR, restored.Meta.SeqS, len(restored.Tuples))
		ack.Resumed, ack.ResumeSeqR, ack.ResumeSeqS = true, restored.Meta.SeqR, restored.Meta.SeqS
	}
	s.eng = eng
	s.engCfg = cfg
	s.opened.Store(true)
	return s.send(func(w *wire.Writer) error { return w.WriteOpenAck(ack) })
}

// readLoop serves frames until Close, RebalancePrepare or an error. After
// either frame the session drains and sends the Closed frame; it reports
// true for a RebalancePrepare, whose window state was cut and handed off,
// so nothing is persisted. An error aborts the session. Batch frames go
// to the ingest; the control frames are served here.
func (s *session) readLoop() (bool, error) {
	// imported accumulates the client-pushed state-chunk counts until the
	// client's RebalanceCommit closes the import.
	var imported wire.RebalanceInfo
	importDone := false
	for {
		f, err := s.in.next()
		if err != nil {
			return false, err
		}
		switch f.Type {
		case wire.FrameBatch:
			if err := s.in.batch(f.Payload); err != nil {
				return false, err
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
				return false, failf(err.Error(), "%v: %v", f.Type, err)
			}
			if err := s.send(func(w *wire.Writer) error { return w.WriteCheckpointDone(info) }); err != nil {
				return false, closef("writing checkpoint-done: %v", err)
			}
			if handOff {
				s.srv.logf("session %d: handed off %d R + %d S window tuples at seqs (%d, %d)",
					s.id, info.TuplesR, info.TuplesS, info.SeqR, info.SeqS)
				return true, nil
			}
		case wire.FrameClose:
			return false, nil
		case wire.FrameStateChunk:
			// Import path: a rebalance coordinator seeds a fresh session's
			// window before streaming resumes. Only before the first batch —
			// afterwards the engine's arrival counters have moved past the
			// punctuation boundary the state was sliced at.
			imp, ok := s.eng.(StateImporter)
			if !ok {
				msg := fmt.Sprintf("engine %v does not support state import", s.engCfg.Engine)
				return false, failf(msg, "%s", msg)
			}
			if s.in.batchesIn.Load() != 0 || importDone {
				return false, failf("state chunk after streaming began", "late state chunk")
			}
			tuples, err := wire.DecodeStateChunk(f.Payload)
			if err != nil {
				return false, failf(err.Error(), "bad state chunk: %v", err)
			}
			if err := imp.ImportState(tuples); err != nil {
				return false, failf(err.Error(), "state import: %v", err)
			}
			imported.Tally(tuples)
		case wire.FrameRebalanceCommit:
			// The client ends its state transfer; echo what this session
			// actually installed (counts observed, base counters configured)
			// so the coordinator can verify the hand-off before resuming.
			want, err := wire.DecodeRebalanceCommit(f.Payload)
			if err != nil {
				return false, failf(err.Error(), "bad rebalance commit: %v", err)
			}
			imported.SeqR, imported.SeqS = s.engCfg.BaseSeqR, s.engCfg.BaseSeqS
			if importDone || want != imported {
				msg := fmt.Sprintf("rebalance commit mismatch: sent %+v, installed %+v", want, imported)
				return false, failf(msg, "%s", msg)
			}
			importDone = true
			if err := s.send(func(w *wire.Writer) error { return w.WriteRebalanceCommit(imported) }); err != nil {
				return false, closef("writing rebalance commit: %v", err)
			}
			s.srv.logf("session %d: imported %d R + %d S window tuples at base seqs (%d, %d)",
				s.id, imported.TuplesR, imported.TuplesS, imported.SeqR, imported.SeqS)
		case wire.FrameError:
			return false, closef("client error: %s", wire.DecodeError(f.Payload))
		default:
			msg := fmt.Sprintf("unexpected %v frame", f.Type)
			return false, failf(msg, "%s", msg)
		}
	}
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
