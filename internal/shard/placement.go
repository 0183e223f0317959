// This file is the placement rule for elastic shard-set resizing: which
// shard of a layout holds each window tuple, and which layouts hold the
// same window. The router runs the protocol around it (state.go), with the
// same state cut and install as its coordinated snapshot and restore.
//
// The paper's Section VI argues that the uni-flow topology is the one that
// scales by adding nodes — residue-class storage needs no coordination, so
// capacity is a function of the shard count alone. What the static design
// lacks is a way to CHANGE that count mid-stream. The insight that makes it
// cheap is the same one that makes SplitJoin scale: window membership is a
// pure function of the per-side arrival index. A tuple with arrival index
// q lives in the global window iff q is among the last W arrivals, and
// belongs to shard q mod N. Re-slicing to modulus M is therefore a
// deterministic permutation of the same W tuples — no replay, no
// dual-writes, no coordination protocol beyond a pause at one punctuation
// boundary.

package shard

import (
	"sort"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// Report summarizes a finished (or aborted) rebalance.
type Report struct {
	// OldShards and NewShards are the layout sizes.
	OldShards, NewShards int
	// TuplesMigrated counts window tuples moved into the new layout (or
	// restored to the old one on abort).
	TuplesMigrated uint64
	// SeqR and SeqS are the punctuation counters the transfer snapshotted.
	SeqR, SeqS uint64
	// SlicesLost counts old shards whose window slice could not migrate
	// (no live session to export from, a failed export, or a failed
	// restore on abort).
	SlicesLost int
	// Aborted reports that the run failed and the old layout was restored.
	Aborted bool
	// Duration is the wall-clock span of the run, pause to resume.
	Duration time.Duration
}

// EffectiveWindow is the per-stream window a layout actually holds. The
// engine rounds each core's sub-window up to ⌈slice/cores⌉ (see
// softjoin.Config), so a per-shard slice that does not divide by the
// core count stores slightly more than window/shards tuples — and a
// resize between layouts with different rounding would silently change
// which tuples are in-window, breaking oracle equivalence. Callers
// refuse such resizes up front. Cores ≤ 0 (server-default parallelism)
// returns window unchanged: the rounding cannot be computed client-side.
func EffectiveWindow(window, shards, cores int) int {
	if cores <= 0 || shards <= 0 || window%shards != 0 {
		return window
	}
	per := window / shards
	per = (per + cores - 1) / cores * cores
	return shards * per
}

// Reslice partitions pooled window state by residue class under the new
// modulus, each slice in the order ImportState requires: ascending
// per-side sequence, R before S. It is the shard router's one placement
// step: a resize re-slices the pooled cut over the new layout, a restore
// re-slices a recovered snapshot over the current one, and a snapshot's
// global image is Reslice(pooled, 1)[0].
func Reslice(pooled []core.Input, modulus int) [][]core.Input {
	sort.Slice(pooled, func(i, j int) bool {
		a, b := pooled[i], pooled[j]
		if a.Side != b.Side {
			return a.Side == stream.SideR
		}
		return a.Tuple.Seq < b.Tuple.Seq
	})
	out := make([][]core.Input, modulus)
	for _, in := range pooled {
		j := int(in.Tuple.Seq % uint64(modulus))
		out[j] = append(out[j], in)
	}
	return out
}
