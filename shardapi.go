package accelstream

import (
	"accelstream/internal/autoscale"
	"accelstream/internal/shard"
)

// This file is the public face of the sharded deployment (internal/shard
// and cmd/streamshard): one logical join session fanned out over N
// streamd processes, SplitJoin-style — every batch is broadcast for
// probing, each tuple is stored by exactly one shard's residue class, and
// the merged result stream equals the single-engine oracle with no
// deduplication. See README.md, "Running sharded".

// ShardConfig parameterizes a shard router session.
type ShardConfig = shard.Config

// ShardRedialPolicy bounds reconnection of a dropped shard session.
type ShardRedialPolicy = shard.RedialPolicy

// ShardRouter is one logical join session over N shard endpoints:
// SendBatch broadcasts batches, Results streams the merged output, and
// Close drains every shard.
type ShardRouter = shard.Router

// ShardState is a point-in-time snapshot of one shard connection.
type ShardState = shard.State

// ShardStats are the router's aggregate totals, returned by Close.
type ShardStats = shard.Stats

// ShardRebalanceReport summarizes one live resize of a router's shard
// set (ShardRouter.Rebalance): layout sizes, window tuples migrated,
// the punctuation counters the transfer snapshotted, and whether the
// run aborted back to the old layout.
type ShardRebalanceReport = shard.Report

// DialSharded connects to every configured streamd endpoint and returns
// the router fronting them as one logical join session. The config's TLS,
// AuthToken, Tenant, ProbeKernel and DialTimeout apply to every shard
// session, redials and rebalance-installed sessions included.
func DialSharded(cfg ShardConfig) (*ShardRouter, error) { return shard.Dial(cfg) }

// AutoscalePolicy parameterizes the closed-loop shard autoscaler: signal
// thresholds (per-shard ingest rate, credit starvation, admission
// throttling, window occupancy), hysteresis streaks, shard-count bounds,
// and the post-action cooldown. The zero value of every field defaults
// sensibly, but at least one hot trigger threshold must be set. The
// struct round-trips as JSON (see LoadAutoscalePolicy).
type AutoscalePolicy = autoscale.Policy

// AutoscaleReport is a controller snapshot: current shard count, decision
// counters, live streaks, cooldown state, and the recent scale actions.
type AutoscaleReport = autoscale.Report

// AutoscaleDecision is one policy evaluation's outcome.
type AutoscaleDecision = autoscale.Decision

// LoadAutoscalePolicy reads an AutoscalePolicy from a JSON file, applies
// defaults, and validates it. Unknown fields are rejected, so a typoed
// threshold fails loudly instead of silently never firing.
func LoadAutoscalePolicy(path string) (AutoscalePolicy, error) {
	return autoscale.LoadPolicy(path)
}

// ParseAutoscalePolicy decodes, defaults, and validates a JSON policy.
func ParseAutoscalePolicy(data []byte) (AutoscalePolicy, error) {
	return autoscale.ParsePolicy(data)
}
