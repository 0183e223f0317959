// Package server exposes the repository's stream-join engines as a
// network service: a TCP server accepting concurrent client sessions
// (each running its own engine configured by the session's Open frame)
// and the matching client library. Framing, validation, and flow control
// are defined in internal/wire; this package adds the session lifecycle:
// handshake, credit-based backpressure, per-session metrics, idle/read
// deadlines, and graceful drain on shutdown.
//
// The paper's Section II frames accelerator deployment as a data-path
// placement problem (standalone vs co-placement vs co-processor, Fig. 4);
// serving the join over a socket is the standalone/network-attached point
// of that landscape, and the `netlat` experiment measures exactly the
// data-path cost this layer adds over an in-process engine.
package server

import (
	"context"
	"crypto/tls"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"accelstream/internal/admission"
	"accelstream/internal/checkpoint"
	"accelstream/internal/metrics"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// Config parameterizes the server.
type Config struct {
	// InitialCredits is the per-session batch-credit window granted at
	// open. Defaults to 8.
	InitialCredits int
	// MaxBatch is the largest accepted tuple count per Batch frame.
	// Defaults to 8192.
	MaxBatch int
	// IdleTimeout closes a session whose client sends nothing for this
	// long. Defaults to 2 minutes; negative disables.
	IdleTimeout time.Duration
	// HandshakeTimeout bounds the wait for the Open frame (and, on a TLS
	// listener, the TLS handshake that precedes it — both run under the
	// same read deadline, so a stalled handshake can never wedge a session
	// goroutine, let alone the accept loop). Defaults to 10 seconds.
	HandshakeTimeout time.Duration
	// MaxSessions caps concurrent sessions (0: unlimited).
	MaxSessions int
	// TLS, when set, serves sessions over TLS: ListenAndServe (and the
	// root facade's Serve) wrap the TCP listener with it. A plaintext
	// client against a TLS server fails its handshake fast and is counted
	// under sessions_rejected_total{reason="tls"}. Callers that build
	// their own listener and call Serve directly apply it themselves (see
	// NewListener).
	TLS *tls.Config
	// AuthToken, when non-empty, requires every session's Open frame to
	// carry the same token. The comparison is constant-time; mismatches
	// are answered with an unauthorized reject ack (typed
	// ErrUnauthorized client-side) and counted under
	// sessions_rejected_total{reason="bad_token"|"no_token"}. Tokens are
	// sent in the clear unless TLS is also enabled.
	AuthToken string
	// ProbeKernel, when not KernelAuto, is the server-wide default probe
	// kernel for soft-uni sessions whose Open frame requests auto: the
	// `-probe-kernel` flag of streamd. A session that names a kernel
	// explicitly keeps its choice. KernelAuto (the zero value) leaves
	// resolution to the engine (hash for the equi-join, scan otherwise).
	ProbeKernel stream.ProbeKernel
	// Logf, when set, receives one line per session lifecycle event.
	Logf func(format string, args ...any)
	// NewEngine, when set, replaces the built-in engine constructors: the
	// session's decoded-and-validated Open config is passed through and
	// the returned Engine serves the session. The shard router daemon
	// (cmd/streamshard) uses this to put a whole shard cluster behind one
	// ordinary streamd session.
	NewEngine func(cfg wire.OpenConfig) (Engine, error)
	// CheckpointDir, when non-empty, enables durable window checkpoints:
	// sessions whose engines support live snapshots (Snapshotter) write
	// CRC-framed snapshot files into this directory — automatically every
	// CheckpointInterval, on client Checkpoint frames, and once more at
	// session teardown — and New restores the newest valid snapshot so
	// the first matching session resumes with the window already loaded.
	CheckpointDir string
	// CheckpointInterval is the minimum time between automatic snapshots,
	// cut at batch (punctuation) boundaries. Defaults to 5 seconds when
	// CheckpointDir is set; negative disables automatic snapshots (client
	// Checkpoint frames and the final teardown snapshot still work).
	CheckpointInterval time.Duration
	// CheckpointRetain is how many snapshot files to keep (newest first).
	// Defaults to 3.
	CheckpointRetain int
	// Quotas configures the multi-tenant admission-control layer: every
	// session opens under a tenant identity (explicit in the Open frame, or
	// derived from its auth token) and is counted against per-tenant and
	// server-wide limits — concurrent sessions, aggregate window memory,
	// and token-bucket ingest rate. Over-limit opens are rejected with a
	// typed reject code before any engine is built; running sessions over
	// their rate are throttled by withheld credits, never killed. The zero
	// value admits everything but still accounts per-tenant usage for the
	// metrics exposition. See internal/admission.
	Quotas admission.Config
}

func (c *Config) applyDefaults() {
	if c.InitialCredits == 0 {
		c.InitialCredits = 8
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 8192
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.HandshakeTimeout == 0 {
		c.HandshakeTimeout = 10 * time.Second
	}
	if c.CheckpointDir != "" {
		if c.CheckpointInterval == 0 {
			c.CheckpointInterval = 5 * time.Second
		}
		if c.CheckpointRetain == 0 {
			c.CheckpointRetain = 3
		}
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.InitialCredits < 0 {
		return fmt.Errorf("server: InitialCredits must be non-negative")
	}
	if c.MaxBatch < 0 {
		return fmt.Errorf("server: MaxBatch must be non-negative")
	}
	return nil
}

// Server is the network-attached stream-join service.
type Server struct {
	cfg Config

	mu       sync.Mutex
	ln       net.Listener
	sessions map[uint64]*session
	history  []SessionMetrics // closed sessions, most recent last
	nextID   uint64
	closed   bool

	// creditsHeld counts batch credits currently withheld from clients
	// (batches accepted off the wire whose credit has not yet been
	// returned); it is the server-wide backpressure gauge.
	creditsHeld atomic.Int64

	// batchSeconds times each Batch frame from its decode to the engine
	// accepting the push that carried it; resultWriteSeconds each Results
	// frame write. Per-tenant batch times live with the tenant's
	// admission entry.
	batchSeconds, resultWriteSeconds metrics.Histogram

	// rejects counts sessions turned away before reaching an engine,
	// keyed by reason (see the reject* constants); it backs the
	// sessions_rejected_total metric.
	rejectMu sync.Mutex
	rejects  map[string]uint64

	// Durable-checkpoint state (see checkpoint.go). ckpt is nil when
	// checkpoints are disabled; restored holds the newest valid snapshot
	// loaded at construction until the first matching session consumes it.
	ckpt       *checkpoint.Store
	restoredMu sync.Mutex
	restored   *checkpoint.Snapshot

	// Checkpoint metrics, exported via MetricsHandler.
	ckptTotal         atomic.Uint64 // snapshots written
	ckptErrors        atomic.Uint64 // snapshot attempts that failed
	ckptSkipped       atomic.Uint64 // auto snapshots skipped (writer busy)
	ckptLastNanos     atomic.Int64  // unix nanos of the last written snapshot
	ckptLastBytes     atomic.Uint64 // encoded size of the last snapshot
	ckptLastDur       atomic.Int64  // wall nanos the last snapshot took
	ckptRestores      atomic.Uint64 // snapshots installed into sessions
	ckptRestoreTuples atomic.Uint64 // window tuples restored
	ckptWriting       atomic.Bool   // single-flight gate for async writes

	// adm is the admission controller (always non-nil): the gate every
	// handshake passes before an engine is built, and the per-tenant
	// accounting behind the streamd_tenant_* metrics.
	adm *admission.Controller

	wg sync.WaitGroup
}

// Reject reasons for the sessions_rejected_total metric. The set is fixed
// and small to keep label cardinality bounded.
const (
	// rejectNoToken: auth required but the Open frame carried no token.
	rejectNoToken = "no_token"
	// rejectBadToken: the Open frame's token did not match.
	rejectBadToken = "bad_token"
	// rejectTLS: the TLS handshake failed (e.g. a plaintext client).
	rejectTLS = "tls"
	// rejectTimeout: the Open frame never arrived within HandshakeTimeout.
	rejectTimeout = "timeout"
	// rejectBadOpen: the Open frame was malformed or failed validation.
	rejectBadOpen = "bad_open"
	// rejectProtocol: the first frame was not an Open frame.
	rejectProtocol = "protocol"
	// rejectEngine: the engine could not be built or started.
	rejectEngine = "engine"
	// rejectCapacity / rejectDraining: turned away at accept time.
	rejectCapacity = "capacity"
	rejectDraining = "draining"
	// rejectIO: the connection failed before the handshake finished.
	rejectIO = "io"
)

// Admission rejects are counted under the wire reject-code names —
// "quota_sessions", "quota_memory", "rate_limited" (wire.RejectCode.String)
// — alongside the constants above, keeping one reason label space.

// countReject records one turned-away session under the given reason.
func (s *Server) countReject(reason string) {
	s.rejectMu.Lock()
	if s.rejects == nil {
		s.rejects = make(map[string]uint64)
	}
	s.rejects[reason]++
	s.rejectMu.Unlock()
}

// rejectCounts snapshots the reject counters.
func (s *Server) rejectCounts() map[string]uint64 {
	s.rejectMu.Lock()
	defer s.rejectMu.Unlock()
	out := make(map[string]uint64, len(s.rejects))
	for k, v := range s.rejects {
		out[k] = v
	}
	return out
}

// New builds a server. Call Serve or ListenAndServe to start it. When
// Config.CheckpointDir is set, New opens the checkpoint store and loads
// the newest valid snapshot (skipping torn or corrupt files) before any
// listener can accept sessions, so the first matching session resumes
// from it.
func New(cfg Config) (*Server, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, sessions: make(map[uint64]*session)}
	s.adm = admission.NewController(cfg.Quotas)
	if err := s.initCheckpoints(); err != nil {
		return nil, err
	}
	return s, nil
}

// logf emits a lifecycle line when logging is configured.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// NewListener opens a TCP listener on addr, wrapped for TLS when tlsCfg
// is non-nil. It is the listener constructor ListenAndServe and the root
// facade share, so both plaintext and TLS listeners are built one way.
func NewListener(addr string, tlsCfg *tls.Config) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tlsCfg != nil {
		ln = tls.NewListener(ln, tlsCfg)
	}
	return ln, nil
}

// ListenAndServe listens on addr ("host:port") — over TLS when Config.TLS
// is set — and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := NewListener(addr, s.cfg.TLS)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Register associates ln with the server (so Addr and Shutdown see it)
// without starting the accept loop; Serve registers automatically, so
// Register is only needed when Serve runs in a separate goroutine and the
// caller must observe Addr immediately.
func (s *Server) Register(ln net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		ln.Close()
		return fmt.Errorf("server: already shut down")
	}
	s.ln = ln
	return nil
}

// Serve accepts sessions on ln until the listener is closed (normally by
// Shutdown, which makes Serve return nil).
func (s *Server) Serve(ln net.Listener) error {
	if err := s.Register(ln); err != nil {
		return err
	}

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed || (s.cfg.MaxSessions > 0 && len(s.sessions) >= s.cfg.MaxSessions) {
			full := !s.closed
			s.mu.Unlock()
			s.rejectConn(conn, full)
			continue
		}
		s.nextID++
		sess := newSession(s, s.nextID, conn)
		s.sessions[sess.id] = sess
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			sess.run()
			s.retire(sess)
		}()
	}
}

// rejectConn counts and turns away a connection that arrived while the
// server was full or draining, with a best-effort Error frame.
func (s *Server) rejectConn(conn net.Conn, full bool) {
	reason, msg := rejectDraining, "server draining"
	if full {
		reason, msg = rejectCapacity, "server at session capacity"
	}
	s.countReject(reason)
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	wire.NewWriter(conn).WriteError(msg)
	conn.Close()
}

// retire moves a finished session from the live table to the history.
func (s *Server) retire(sess *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sessions, sess.id)
	s.history = append(s.history, sess.metrics())
	const keep = 256
	if len(s.history) > keep {
		s.history = s.history[len(s.history)-keep:]
	}
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown gracefully drains the server: it stops accepting, then waits
// for every active session to finish naturally (clients completing their
// drain handshake). When ctx expires, remaining sessions are aborted by
// closing their connections; Shutdown still waits for their goroutines to
// exit before returning, so no engine goroutine outlives it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for _, sess := range s.sessions {
			sess.abort()
		}
		s.mu.Unlock()
		<-done
	}
	return err
}

// TenantMetrics snapshots the admission controller's per-tenant usage
// (sorted by tenant identity) plus the server-wide cumulative count of
// throttle events (credits withheld by rate shaping).
func (s *Server) TenantMetrics() ([]admission.TenantUsage, uint64) {
	return s.adm.Snapshot()
}

// Metrics snapshots every live session plus recently closed ones, ordered
// by session ID.
func (s *Server) Metrics() []SessionMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SessionMetrics, 0, len(s.sessions)+len(s.history))
	out = append(out, s.history...)
	for _, sess := range s.sessions {
		out = append(out, sess.metrics())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
