// Package shard implements a SplitJoin-style shard router: one logical
// join session fanned out over N independent streamd processes. It is the
// software rendering of the paper's Section III distribution network — the
// top-k levels of SplitJoin's distribution tree, lifted out of the FPGA
// and into a client-side router so the remaining sub-trees can live on
// separate machines.
//
// The data flow follows SplitJoin's uni-flow discipline at cluster scale:
//
//   - Probe: every batch is broadcast to every shard, so each arriving
//     tuple is compared against all N window slices (together, the full
//     window).
//   - Store: each tuple is stored by exactly one shard — shard engines are
//     opened with a (ShardCount, ShardIndex) residue class, so shard i
//     keeps only the tuples whose per-side arrival index ≡ i (mod N).
//     Slices are disjoint; the merged result stream needs no
//     deduplication and matches the single-engine oracle exactly.
//
// Failure containment mirrors the paper's independence argument: shards
// never coordinate, so losing one costs exactly its window slice — every
// match it alone could produce has its stored tuple in residue class i —
// while the other N-1 shards keep answering. Dropped connections are
// re-dialed with per-side arrival offsets (BaseSeqR/BaseSeqS) so a
// recovered shard rejoins the same residue class with globally consistent
// sequence numbering.
package shard

import (
	"crypto/tls"
	"fmt"
	"time"

	"accelstream/internal/autoscale"
	"accelstream/internal/stream"
)

// RedialPolicy bounds reconnection of a dropped shard session. The zero
// value means "use defaults" (3 attempts, 50ms base delay doubling to a
// 1s cap); Attempts < 0 disables redial entirely, so the first connection
// loss permanently downs the shard.
type RedialPolicy struct {
	// Attempts is the maximum consecutive dial attempts before the shard
	// is marked permanently down. 0 defaults to 3; negative disables.
	Attempts int
	// BaseDelay is the pause before the first retry; it doubles per
	// attempt. 0 defaults to 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. 0 defaults to 1s.
	MaxDelay time.Duration
}

func (p RedialPolicy) withDefaults() RedialPolicy {
	if p.Attempts == 0 {
		p.Attempts = 3
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = time.Second
	}
	return p
}

// Config parameterizes a shard router.
type Config struct {
	// Addrs lists the streamd endpoints, one per shard. Order matters:
	// position i is residue class i.
	Addrs []string
	// Cores is the per-shard engine parallelism (each shard engine
	// further sub-partitions its slice across this many cores).
	// Defaults to 1.
	Cores int
	// Window is the global per-stream window size; shard i holds the
	// Window/len(Addrs) slice with its residue. Must divide evenly.
	Window int
	// QueueDepth is the per-shard pending-batch queue; SendBatch blocks
	// once the slowest live shard is this many batches behind (the
	// backpressure point). Defaults to 4.
	QueueDepth int
	// Redial bounds reconnection after a shard connection drops.
	Redial RedialPolicy
	// TLS, when set, dials every shard endpoint over TLS with this
	// configuration — redials included, so a secured shard set survives
	// drops without falling back to plaintext.
	TLS *tls.Config
	// AuthToken, when non-empty, authenticates every shard session (and
	// every redial) against the shards' configured token.
	AuthToken string
	// Tenant, when non-empty, is the tenant identity every shard session
	// opens under — first dials, redials, and rebalance-installed sessions
	// alike — so the whole deployment is accounted against one tenant's
	// admission quotas on every shard server.
	Tenant string
	// ProbeKernel, when not KernelAuto, is carried in every shard
	// session's Open frame so the backing engines run the named probe
	// kernel (hash index or block scan) instead of resolving it per
	// condition.
	ProbeKernel stream.ProbeKernel
	// DialTimeout bounds each shard connect + handshake (0: the client
	// default). Redial backoff delays are on top of this.
	DialTimeout time.Duration
	// FailFast makes SendBatch return an error once any shard is
	// permanently down, instead of degrading to the surviving shards.
	FailFast bool
	// BaseSeqR/BaseSeqS resume the global per-side arrival counters when
	// the deployment restarts from a durable checkpoint: every shard
	// session opens with these base offsets, and the producer replays
	// only the post-snapshot suffix. ImportState must install the
	// snapshot's window tuples before the first batch.
	BaseSeqR, BaseSeqS uint64
	// Autoscale, when set, runs a closed-loop autoscaler over the
	// deployment: the router's live signals feed the policy, and scale
	// decisions drive Rebalance across the Addrs+Standby address pool.
	// Dial fails if any reachable shard count would violate the resize
	// constraints (Window divisibility, effective-window preservation).
	Autoscale *autoscale.Policy
	// Standby lists extra shard endpoints the autoscaler may grow into,
	// in activation order after Addrs. Not dialed until a scale-up
	// targets them.
	Standby []string
	// Logf, when set, receives shard lifecycle lines (drops, redials).
	Logf func(format string, args ...any)
}

func (c *Config) applyDefaults() {
	if c.Cores == 0 {
		c.Cores = 1
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4
	}
	c.Redial = c.Redial.withDefaults()
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("shard: Window must be positive, got %d", c.Window)
	}
	// The first layout is held to the resize rule against itself.
	if err := c.checkResize(len(c.Addrs), len(c.Addrs)); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if c.Cores < 0 || c.QueueDepth < 0 {
		return fmt.Errorf("shard: Cores and QueueDepth must be non-negative")
	}
	return nil
}

// State is a point-in-time snapshot of one shard connection.
type State struct {
	// Index is the shard's position, i.e. its residue class.
	Index int
	// Addr is the shard's endpoint.
	Addr string
	// Up reports whether the shard has a live session.
	Up bool
	// Down reports permanent loss: redial attempts were exhausted (or
	// disabled) and the shard no longer receives batches.
	Down bool
	// Redials counts successful reconnections.
	Redials uint64
	// BatchesDropped counts broadcast batches this shard never
	// processed (lost on a dead connection or skipped while down).
	BatchesDropped uint64
	// Results counts results merged from this shard.
	Results uint64
	// CreditsOutstanding is how many batch credits the shard's session
	// currently holds server-side — the per-shard backpressure signal.
	// Zero while the shard has no live session.
	CreditsOutstanding int
}

// Stats are the router's aggregate totals, returned by Close. Counters
// span shard generations: a rebalance folds the retired generation's
// totals in rather than resetting them.
type Stats struct {
	// TuplesIn counts tuples accepted by SendBatch.
	TuplesIn uint64
	// ResultsOut counts merged results delivered.
	ResultsOut uint64
	// ShardsDown counts shards permanently lost during the session.
	ShardsDown int
	// BatchesDropped sums per-shard dropped batches.
	BatchesDropped uint64
	// Redials sums successful per-shard reconnections.
	Redials uint64
}
