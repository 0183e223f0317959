package accelstream

import (
	"accelstream/internal/admission"
	"accelstream/internal/server"
	"accelstream/internal/wire"
)

// This file is the public face of the network-attached stream-join
// service (cmd/streamd): a TCP server that runs one join engine per
// client session behind the compact binary protocol of internal/wire,
// with credit-based backpressure, per-session metrics, and graceful
// drain. See README.md, "Running as a service".

// ServerConfig parameterizes the stream-join service.
type ServerConfig = server.Config

// Server is the network-attached stream-join service. Build with
// NewServer, start with Serve/ListenAndServe, stop with Shutdown.
type Server = server.Server

// NewServer builds a stream-join server.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// SessionMetrics is a point-in-time snapshot of one server session.
type SessionMetrics = server.SessionMetrics

// SessionEngineImpl is the server-side engine abstraction a session runs;
// supply ServerConfig.NewEngine to put a custom implementation (such as a
// shard router — see cmd/streamshard) behind an ordinary session.
type SessionEngineImpl = server.Engine

// SessionResultBatcher is the optional capability a custom session engine
// may add to SessionEngineImpl: the session then pulls whole pooled
// result batches from NextResultBatch and never calls Results (the two
// are mutually exclusive consumers of the engine's output).
type SessionResultBatcher = server.ResultBatcher

// SessionConfig selects and sizes the engine a client session runs.
type SessionConfig = wire.OpenConfig

// SessionEngine identifies which join engine a session runs server-side.
type SessionEngine = wire.EngineKind

// The engines a session can request.
const (
	// EngineSoftwareUniFlow is the software SplitJoin engine.
	EngineSoftwareUniFlow = wire.EngineSoftUni
	// EngineSoftwareBiFlow is the software handshake-join engine.
	EngineSoftwareBiFlow = wire.EngineSoftBi
	// EngineSimulatedUniFlow is the cycle-level simulated uni-flow FPGA
	// design (small windows only).
	EngineSimulatedUniFlow = wire.EngineSimUni
)

// ParseSessionEngine maps a command-line name (uni, bi, sim) to an engine.
func ParseSessionEngine(name string) (SessionEngine, error) {
	return wire.ParseEngineKind(name)
}

// Client is one session against a stream-join server: SendBatch pushes
// side-tagged tuples (blocking while the server's credit window is
// exhausted), Results streams back join results, and Close drains the
// session and returns the server's final statistics.
type Client = server.Client

// SessionStats are the final statistics a graceful session close returns.
type SessionStats = wire.Stats

// ErrUnauthorized reports that a server rejected the session's auth token
// (missing or mismatched) during the Dial handshake; test with errors.Is.
var ErrUnauthorized = server.ErrUnauthorized

// ErrAdmissionDenied reports that a server's admission controller turned
// the session away — a tenant or server-wide quota (sessions, window
// memory, or ingest rate) was exhausted. Test with errors.Is; use
// errors.As against *AdmissionError for the typed code and retry-after
// hint. Unlike ErrUnauthorized, retrying after the hint can succeed.
var ErrAdmissionDenied = server.ErrAdmissionDenied

// AdmissionError is the typed admission rejection a quota-limited server
// answers an over-limit Dial with; it wraps ErrAdmissionDenied.
type AdmissionError = server.AdmissionError

// TenantQuota bounds one tenant's (or, as QuotaConfig.Server, the whole
// server's) resources: concurrent sessions, aggregate window memory, and
// token-bucket ingest rate. Zero fields are unlimited.
type TenantQuota = admission.Quota

// QuotaConfig is a server's admission-control configuration: a
// server-wide aggregate quota, a default per-tenant quota, and per-tenant
// overrides. Serve takes it as ServerConfig.Quotas.
type QuotaConfig = admission.Config

// TenantUsage is one tenant's live accounting snapshot, as returned by
// Server.TenantMetrics.
type TenantUsage = admission.TenantUsage

// LoadQuotaConfig reads a QuotaConfig from a JSON file — the format the
// streamd/streamshard `-quota-config` flag takes; see README.md,
// "Multi-tenant operation".
func LoadQuotaConfig(path string) (QuotaConfig, error) { return admission.LoadConfig(path) }

// Dial connects to a stream-join server (see Serve / cmd/streamd) and
// opens a session with the given engine configuration. The config carries
// everything the Open frame does, auth token and tenant included; the
// options choose TLS (WithTLS) and the dial deadline (WithDialTimeout).
func Dial(addr string, cfg SessionConfig, opts ...DialOption) (*Client, error) {
	return server.DialWith(addr, cfg, dialOptions(opts))
}

// ClientPool stripes independent sessions over several connections to
// one server: SendBatch hands batches out round-robin, Results merges
// the sessions' outputs, and a session lost mid-stream is transparently
// replaced. Each session runs its own engine and window — the pool is a
// throughput construct (K independent joins), not one bigger logical
// join; for that, see DialSharded.
type ClientPool = server.ClientPool

// DialPool connects conns independent sessions to one stream-join
// server, all with the same engine configuration; conns <= 0 defaults
// to 1. It takes the same options as Dial.
func DialPool(addr string, conns int, cfg SessionConfig, opts ...DialOption) (*ClientPool, error) {
	return server.DialPool(addr, conns, cfg, dialOptions(opts))
}

// Serve listens on addr ("host:port"; ":0" picks a free port — see
// Server.Addr) and serves stream-join sessions in a background goroutine
// until Shutdown is called on the returned server. It is the programmatic
// equivalent of running cmd/streamd. The config secures the service
// (TLS, from LoadServerTLS; AuthToken), makes it durable (CheckpointDir,
// CheckpointInterval) and bounds its tenants (Quotas); left zero, it
// serves plaintext TCP to anyone, with no quotas and no checkpoints.
func Serve(addr string, cfg ServerConfig) (*Server, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := server.NewListener(addr, cfg.TLS)
	if err != nil {
		return nil, err
	}
	if err := srv.Register(ln); err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	return srv, nil
}
