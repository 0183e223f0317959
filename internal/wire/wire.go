// Package wire defines the binary framing protocol spoken between the
// network-attached stream-join service (internal/server, cmd/streamd) and
// its clients. The paper's co-processor deployments (Section II, Fig. 4)
// pay a data-path cost to move tuples between the host and the
// accelerator; this protocol is the software analogue of that data path:
// a compact, length-prefixed, CRC-validated framing of the 64-bit
// stream.Tuple so that a join engine can live behind a TCP socket.
//
// Every frame has the layout
//
//	[type:1][payload length:uvarint][payload][crc32:4]
//
// where the CRC-32 (IEEE) covers the type byte and the payload, so both a
// corrupted header and a corrupted body are detected. Batch frames carry a
// uvarint tuple count followed by fixed-width side-tagged tuples (1-byte
// side + 32-bit key + 32-bit value, the exact wire-visible width of the
// paper's bus word). Result frames additionally carry the per-stream
// arrival sequence numbers the server assigned, so clients can check the
// exactly-once pairing invariant against the oracle.
//
// Flow control is credit-based: the server grants an initial window of
// batch credits in the OpenAck frame, and every Batch frame consumes one.
// Credits come back in Credit(n) frames once the engine has accepted the
// batches: one Credit frame returns n credits at once, one for each Batch
// frame the server's read buffer held. Small Batch frames that arrived
// together may also reach the engine as one merged push, but credits
// still count frames. A client blocks when its credits are exhausted,
// which propagates engine backpressure all the way to the producer
// without unbounded buffering on either side.
package wire

import (
	"fmt"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// ProtocolV2 is the protocol version carried in the Open frame's leading
// uvarint (and in the OpenAck after its leading 0). Both frames are
// field-tagged (TLV), so the handshake grows by adding tags, not versions;
// DecodeOpen refuses any other version.
const ProtocolV2 = 2

// MaxPayload bounds a frame payload so a corrupt or hostile length prefix
// cannot cause an unbounded allocation.
const MaxPayload = 1 << 22 // 4 MiB

// FrameType identifies a frame.
type FrameType uint8

// The frame types of the protocol.
const (
	// FrameOpen (client → server) opens a session and configures its
	// engine.
	FrameOpen FrameType = iota + 1
	// FrameOpenAck (server → client) accepts the session and grants the
	// initial credit window.
	FrameOpenAck
	// FrameBatch (client → server) carries a batch of side-tagged tuples.
	// Each Batch frame consumes one credit.
	FrameBatch
	// FrameResults (server → client) carries a batch of join results.
	FrameResults
	// FrameCredit (server → client) returns batch credits to the client.
	FrameCredit
	// FrameClose (client → server) requests a graceful drain: the server
	// flushes all in-flight work, streams the remaining results, and
	// answers with FrameClosed.
	FrameClose
	// FrameClosed (server → client) completes a graceful drain and
	// carries the session's final statistics.
	FrameClosed
	// FrameError (either direction) reports a fatal session error.
	FrameError
	// FrameRebalancePrepare (client → server) requests the rebalance
	// hand-off: the same state cut as FrameCheckpoint — StateChunk frames,
	// then CheckpointDone — except that the server never persists it and
	// then closes the session with the usual Closed frame, like FrameClose
	// with the window handed off. Its own frame type keeps the request a
	// constant rather than a payload to decode.
	FrameRebalancePrepare
	// FrameStateChunk (either direction) carries a slice of sliding-window
	// state: side-tagged tuples with their per-side arrival sequence
	// numbers. Server → client it streams the cut a Checkpoint or
	// RebalancePrepare asked for; client → server it installs state into a
	// freshly opened session before its first Batch frame.
	FrameStateChunk
	// FrameRebalanceCommit (either direction) ends a state import with
	// per-side tuple counts and arrival counters: the client sends it after
	// the last StateChunk, and the server answers with an echoing
	// RebalanceCommit once the state is installed, so the coordinator knows
	// the shard holds exactly the slice it was sent.
	FrameRebalanceCommit
	// FrameCheckpoint (client → server) asks the session to cut its
	// engine's window state at the punctuation boundary the frame's
	// position in the stream defines: every batch sent before it is
	// included, nothing after. The server streams the state back as
	// StateChunk frames, persists it when it has a checkpoint store, and
	// answers with CheckpointDone once the state — and every result the
	// included input produces — has been handed to the connection. The
	// session stays live.
	FrameCheckpoint
	// FrameCheckpointDone (server → client) ends a state cut with a
	// RebalanceInfo payload: the per-side resident tuple counts and arrival
	// counters at the boundary.
	FrameCheckpointDone
)

// String implements fmt.Stringer.
func (t FrameType) String() string {
	switch t {
	case FrameOpen:
		return "open"
	case FrameOpenAck:
		return "open-ack"
	case FrameBatch:
		return "batch"
	case FrameResults:
		return "results"
	case FrameCredit:
		return "credit"
	case FrameClose:
		return "close"
	case FrameClosed:
		return "closed"
	case FrameError:
		return "error"
	case FrameRebalancePrepare:
		return "rebalance-prepare"
	case FrameStateChunk:
		return "state-chunk"
	case FrameRebalanceCommit:
		return "rebalance-commit"
	case FrameCheckpoint:
		return "checkpoint"
	case FrameCheckpointDone:
		return "checkpoint-done"
	default:
		return fmt.Sprintf("frame(%d)", uint8(t))
	}
}

// EngineKind selects which join engine a session runs server-side.
type EngineKind uint8

// The engines a session can request.
const (
	// EngineSoftUni is the software SplitJoin (uni-flow) engine.
	EngineSoftUni EngineKind = iota + 1
	// EngineSoftBi is the software handshake-join (bi-flow) engine.
	EngineSoftBi
	// EngineSimUni is the cycle-level simulated uni-flow FPGA design,
	// usable for small windows (the simulator processes one bus word per
	// simulated cycle, so large windows are better served in software).
	EngineSimUni
)

// String implements fmt.Stringer.
func (k EngineKind) String() string {
	switch k {
	case EngineSoftUni:
		return "soft-uni"
	case EngineSoftBi:
		return "soft-bi"
	case EngineSimUni:
		return "sim-uni"
	default:
		return fmt.Sprintf("engine(%d)", uint8(k))
	}
}

// ParseEngineKind maps a command-line name to an engine kind.
func ParseEngineKind(name string) (EngineKind, error) {
	switch name {
	case "uni", "soft-uni":
		return EngineSoftUni, nil
	case "bi", "soft-bi":
		return EngineSoftBi, nil
	case "sim", "sim-uni":
		return EngineSimUni, nil
	default:
		return 0, fmt.Errorf("wire: unknown engine %q (want uni, bi, or sim)", name)
	}
}

// MaxAuthToken bounds the session auth token carried in the Open frame.
const MaxAuthToken = 512

// MaxTenant bounds the tenant identity carried in the Open frame.
const MaxTenant = 128

// ValidTenant reports whether s is a well-formed tenant identity: 1 to
// MaxTenant bytes of [a-zA-Z0-9._:-]. The charset is restricted so tenant
// identities can be embedded verbatim in metric labels and log lines.
func ValidTenant(s string) bool {
	if len(s) == 0 || len(s) > MaxTenant {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == ':' || c == '-':
		default:
			return false
		}
	}
	return true
}

// RejectCode is the machine-readable session-reject classification carried
// in an OpenAck (RejectNone means the session was accepted): a client
// switches on the code instead of parsing a message.
type RejectCode uint8

// The session-reject codes.
const (
	// RejectNone: the session was admitted.
	RejectNone RejectCode = iota
	// RejectUnauthorized: the auth token was missing or did not match.
	RejectUnauthorized
	// RejectQuotaSessions: the tenant (or server) concurrent-session quota
	// is exhausted.
	RejectQuotaSessions
	// RejectQuotaMemory: admitting the session's window would exceed the
	// tenant (or server) aggregate window-memory budget.
	RejectQuotaMemory
	// RejectRateLimited: the tenant's ingest budget is currently exhausted
	// (its running sessions are being throttled); retry after the hint.
	RejectRateLimited
	// RejectQuotaTenants: the server's distinct-live-tenant table is full;
	// no entry can be created for a new tenant identity until an idle one
	// ages out.
	RejectQuotaTenants
)

// String implements fmt.Stringer; the strings double as the reason labels
// of the sessions_rejected_total metric.
func (c RejectCode) String() string {
	switch c {
	case RejectNone:
		return "none"
	case RejectUnauthorized:
		return "unauthorized"
	case RejectQuotaSessions:
		return "quota_sessions"
	case RejectQuotaMemory:
		return "quota_memory"
	case RejectRateLimited:
		return "rate_limited"
	case RejectQuotaTenants:
		return "quota_tenants"
	default:
		return fmt.Sprintf("reject(%d)", uint8(c))
	}
}

// Valid reports whether c is a known reject code.
func (c RejectCode) Valid() bool { return c <= RejectQuotaTenants }

// simWindowLimit is the largest per-stream window the simulated engine
// accepts over the wire; beyond this the cycle-level simulation is too slow
// to serve a live socket.
const simWindowLimit = 1 << 12

// OpenConfig is the session configuration carried in the Open frame.
type OpenConfig struct {
	// Engine selects the join engine.
	Engine EngineKind
	// Cores is the number of join cores.
	Cores int
	// Window is the per-stream sliding-window size of this engine. In a
	// sharded deployment this is the shard's slice (global window divided
	// by ShardCount), not the global window.
	Window int
	// Ordered requests SplitJoin's punctuated result ordering (software
	// uni-flow only, unsharded only: a shard router merges the relaxed
	// per-shard streams).
	Ordered bool
	// ShardCount and ShardIndex assign the session a shard role in a
	// SplitJoin-style distributed deployment: the engine still probes
	// every tuple against its windows, but stores only tuples whose
	// per-side arrival index is ≡ ShardIndex (mod ShardCount). A router
	// that broadcasts the streams to ShardCount such sessions (one per
	// residue class) thus keeps the shard window slices disjoint while
	// every arrival probes the full distributed window — the software
	// form of SplitJoin's distribution tree. ShardCount 0 or 1 means
	// unsharded. Sharded storage requires the soft-uni engine.
	ShardCount int
	ShardIndex int
	// BaseSeqR and BaseSeqS start the engine's per-side arrival counters
	// (and thus result sequence numbers and the residue-class store turn)
	// at an offset instead of zero. A shard router uses this to re-open a
	// session mid-stream after a shard failure: the replacement session
	// resumes the global arrival count so its residue class stays aligned,
	// while its (empty) window slice is the only state lost.
	BaseSeqR uint64
	BaseSeqS uint64
	// AuthToken is the session authentication token, checked by the server
	// against its configured token (constant-time) before the engine is
	// built. Empty means no token; a server with authentication enabled
	// rejects such sessions.
	AuthToken string
	// ProbeKernel selects the window-probe kernel of a soft-uni engine:
	// auto (the zero value) resolves per join condition, hash forces the
	// per-core incremental key index, scan forces the block-scan sweep.
	ProbeKernel stream.ProbeKernel
	// Tenant is the session's tenant identity, the unit of admission
	// control: per-tenant session, window-memory, and ingest-rate quotas
	// are accounted against it. Empty means "no explicit tenant": the
	// server derives one from the auth token, or uses the default tenant.
	Tenant string
}

// Validate bounds-checks the configuration.
func (c OpenConfig) Validate() error {
	if c.Tenant != "" && !ValidTenant(c.Tenant) {
		return fmt.Errorf("wire: invalid tenant identity %q (1-%d bytes of [a-zA-Z0-9._:-])", c.Tenant, MaxTenant)
	}
	switch c.Engine {
	case EngineSoftUni, EngineSoftBi, EngineSimUni:
	default:
		return fmt.Errorf("wire: invalid engine kind %v", c.Engine)
	}
	if c.Cores <= 0 || c.Cores > 1024 {
		return fmt.Errorf("wire: cores %d out of range [1,1024]", c.Cores)
	}
	if c.Window <= 0 || c.Window > 1<<26 {
		return fmt.Errorf("wire: window %d out of range [1,2^26]", c.Window)
	}
	if c.Engine == EngineSimUni && c.Window > simWindowLimit {
		return fmt.Errorf("wire: window %d too large for the simulated engine (max %d)", c.Window, simWindowLimit)
	}
	if c.Ordered && c.Engine != EngineSoftUni {
		return fmt.Errorf("wire: ordered results require the soft-uni engine")
	}
	if c.ShardCount < 0 || c.ShardCount > 1024 {
		return fmt.Errorf("wire: shard count %d out of range [0,1024]", c.ShardCount)
	}
	if c.ShardCount > 1 {
		if c.Engine != EngineSoftUni {
			return fmt.Errorf("wire: sharded storage requires the soft-uni engine, got %v", c.Engine)
		}
		if c.ShardIndex < 0 || c.ShardIndex >= c.ShardCount {
			return fmt.Errorf("wire: shard index %d out of range [0,%d)", c.ShardIndex, c.ShardCount)
		}
		if c.Ordered {
			return fmt.Errorf("wire: ordered results are unavailable on a sharded session")
		}
	} else if c.ShardIndex != 0 {
		return fmt.Errorf("wire: shard index %d without a shard count", c.ShardIndex)
	}
	if (c.BaseSeqR != 0 || c.BaseSeqS != 0) && c.Engine != EngineSoftUni {
		return fmt.Errorf("wire: base sequence offsets require the soft-uni engine")
	}
	if len(c.AuthToken) > MaxAuthToken {
		return fmt.Errorf("wire: auth token of %d bytes exceeds limit %d", len(c.AuthToken), MaxAuthToken)
	}
	if !c.ProbeKernel.Valid() {
		return fmt.Errorf("wire: invalid probe kernel code %d", c.ProbeKernel)
	}
	if c.ProbeKernel != stream.KernelAuto && c.Engine != EngineSoftUni {
		return fmt.Errorf("wire: probe kernel selection requires the soft-uni engine")
	}
	return nil
}

// MaxStateChunk bounds the tuples carried by one StateChunk frame, so a
// window migration is paced in frames that stay far below MaxPayload.
const MaxStateChunk = 8192

// RebalanceInfo summarizes one side of a window-state transfer: how many
// tuples of each stream were moved and the per-side arrival counters the
// receiving engine resumes at (its Open frame's BaseSeqR/BaseSeqS). Both
// ends of a transfer exchange it in RebalanceCommit frames and compare, so
// a short or duplicated migration is detected before streaming resumes.
type RebalanceInfo struct {
	// TuplesR and TuplesS count the window-resident tuples transferred
	// per stream.
	TuplesR uint64
	TuplesS uint64
	// SeqR and SeqS are the per-side arrival counters at the punctuation
	// boundary the transfer snapshots.
	SeqR uint64
	SeqS uint64
}

// Tally adds the per-side counts of tuples to TuplesR and TuplesS.
func (info *RebalanceInfo) Tally(tuples []core.Input) {
	for i := range tuples {
		if tuples[i].Side == stream.SideR {
			info.TuplesR++
		} else {
			info.TuplesS++
		}
	}
}

// OpenAck is the server's answer to an Open frame: an acceptance carrying
// the initial credit window, or a typed rejection carrying a RejectCode
// and an optional retry-after hint.
type OpenAck struct {
	// Reject, when not RejectNone, marks the ack as a typed rejection: the
	// session was turned away and the connection closes.
	Reject RejectCode
	// RetryAfter hints how long a rejected client should wait before
	// retrying (zero: no hint). Only meaningful with Reject set.
	RetryAfter time.Duration
	// Credits is the initial batch-credit window.
	Credits int
	// Session is the server-assigned session identifier.
	Session uint64
	// Resumed reports that the server restored a durable checkpoint into
	// this session's engine before accepting it: the engine already holds
	// the snapshot's window and its arrival counters start at
	// ResumeSeqR/ResumeSeqS, so the client replays only the suffix of the
	// streams from those positions.
	Resumed    bool
	ResumeSeqR uint64
	ResumeSeqS uint64
}

// Stats are the session statistics carried in the Closed frame.
type Stats struct {
	// TuplesIn is how many tuples the server ingested.
	TuplesIn uint64
	// BatchesIn is how many Batch frames the server ingested.
	BatchesIn uint64
	// ResultsOut is how many join results the server emitted.
	ResultsOut uint64
}
