// Package rebalance is the control plane for elastic shard-set resizing:
// it re-slices the sliding-window state of a running SplitJoin deployment
// across a changed shard set (N→M, grow or shrink) while the join keeps
// running, with the merged result stream staying oracle-equal through the
// transition.
//
// The paper's Section VI argues that the uni-flow topology is the one that
// scales by adding nodes — residue-class storage needs no coordination, so
// capacity is a function of the shard count alone. What the static design
// lacks is a way to CHANGE that count mid-stream: residue classes are
// fixed at dial time, so a deployment can never grow past its initial N.
// This package supplies the missing transition. The insight that makes it
// cheap is the same one that makes SplitJoin scale: window membership is a
// pure function of the per-side arrival index. A tuple with arrival index
// q lives in the global window iff q is among the last W arrivals, and
// belongs to shard q mod N. Re-slicing to modulus M is therefore a
// deterministic permutation of the same W tuples — no replay, no
// dual-writes, no coordination protocol beyond a pause at one punctuation
// boundary:
//
//  1. Quiesce: the router stops broadcasting; every shard session cuts
//     its window exactly as for a checkpoint (FIFO wire order makes
//     RebalancePrepare the punctuation), streams its residue-class slice
//     with sequence numbers attached, persists nothing, and closes.
//  2. Re-slice: the coordinator pools the slices — together, exactly the
//     global window — and re-partitions them by sequence mod M.
//  3. Install: M fresh sessions are dialed with the new modulus, the
//     paused arrival counters as BaseSeq offsets, and their slice of the
//     window imported before any batch flows; each confirms installation
//     with an echoed RebalanceCommit.
//  4. Resume: the router swaps generations and continues broadcasting;
//     every probe still sees the full global window, so no result is lost
//     or duplicated across the transition.
//
// Any failure before the last import confirms aborts the rebalance: the
// new sessions are closed and the old layout is restored by re-dialing the
// old endpoints and re-importing the very slices that were exported —
// held in the coordinator's memory, so nothing is lost by a failed
// attempt.
package rebalance

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/server"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// Config parameterizes one rebalance run.
type Config struct {
	// OldClients are the quiesced sessions of the current layout, indexed
	// by residue class. A nil entry is a shard whose session is currently
	// lost — its window slice cannot migrate (it is already gone), which
	// the run tolerates exactly like the router tolerates the loss itself.
	// The coordinator takes ownership: every non-nil client is terminally
	// drained via Client.ExportState.
	OldClients []*server.Client
	// OldAddrs and NewAddrs are the shard endpoints of the two layouts;
	// the global Window must divide evenly by both lengths.
	OldAddrs []string
	NewAddrs []string
	// Window is the global per-stream window; Cores the per-shard engine
	// parallelism (both as in shard.Config).
	Window int
	Cores  int
	// SeqR and SeqS are the router's global arrival counters at the pause.
	// Every export must report exactly these — a mismatch means a shard
	// processed a different stream prefix and the rebalance aborts.
	SeqR, SeqS uint64
	// DialOptions dials the new sessions (and any abort-path restore)
	// with the same TLS/auth/timeout plumbing as the router's own dials.
	DialOptions server.DialOptions
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

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
	// (no live session to export from).
	SlicesLost int
	// Aborted reports that the run failed and the old layout was restored.
	Aborted bool
	// Duration is the wall-clock span of the run, pause to resume.
	Duration time.Duration
}

func (cfg Config) logf(format string, args ...any) {
	if cfg.Logf != nil {
		cfg.Logf(format, args...)
	}
}

// validate bounds-checks a run's configuration.
func (cfg Config) validate() error {
	if len(cfg.OldAddrs) == 0 || len(cfg.NewAddrs) == 0 {
		return fmt.Errorf("rebalance: both layouts need at least one shard")
	}
	if len(cfg.OldClients) != len(cfg.OldAddrs) {
		return fmt.Errorf("rebalance: %d old clients for %d old shards", len(cfg.OldClients), len(cfg.OldAddrs))
	}
	if cfg.Window <= 0 {
		return fmt.Errorf("rebalance: Window must be positive, got %d", cfg.Window)
	}
	if cfg.Window%len(cfg.OldAddrs) != 0 || cfg.Window%len(cfg.NewAddrs) != 0 {
		return fmt.Errorf("rebalance: Window %d does not divide evenly across both %d and %d shards",
			cfg.Window, len(cfg.OldAddrs), len(cfg.NewAddrs))
	}
	if o, n := EffectiveWindow(cfg.Window, len(cfg.OldAddrs), cfg.Cores), EffectiveWindow(cfg.Window, len(cfg.NewAddrs), cfg.Cores); o != n {
		return fmt.Errorf("rebalance: resizing %d -> %d shards changes the effective window %d -> %d: the per-shard slice must divide by the %d engine cores for results to stay oracle-equal",
			len(cfg.OldAddrs), len(cfg.NewAddrs), o, n, cfg.Cores)
	}
	return nil
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

// openConfig is the session configuration for shard index in a layout of
// modulus shards, resuming at the punctuation counters.
func (cfg Config) openConfig(modulus, index int) wire.OpenConfig {
	return wire.OpenConfig{
		Engine:     wire.EngineSoftUni,
		Cores:      cfg.Cores,
		Window:     cfg.Window / modulus,
		ShardCount: modulus,
		ShardIndex: index,
		BaseSeqR:   cfg.SeqR,
		BaseSeqS:   cfg.SeqS,
	}
}

// Run executes one rebalance: export the old shards' window slices,
// re-partition them by the new modulus, and install them on freshly dialed
// sessions. On success it returns the new layout's clients (one per
// NewAddrs entry, state installed, no batch sent yet). On failure it
// restores the old layout from the exported state and returns the restored
// clients with Report.Aborted set and the causing error; entries that
// could not be restored are nil (their slices are lost, exactly as if the
// shard had crashed). The caller owns whichever client set comes back.
func Run(cfg Config) ([]*server.Client, Report, error) {
	start := time.Now()
	rep := Report{
		OldShards: len(cfg.OldAddrs),
		NewShards: len(cfg.NewAddrs),
		SeqR:      cfg.SeqR,
		SeqS:      cfg.SeqS,
	}
	if err := cfg.validate(); err != nil {
		rep.Duration = time.Since(start)
		return nil, rep, err
	}

	// Phase 1: terminally drain every live old session and take its
	// residue-class slice. Exports run concurrently — each blocks on its
	// own session's drain.
	slices := make([][]core.Input, len(cfg.OldClients))
	errs := make([]error, len(cfg.OldClients))
	var wg sync.WaitGroup
	for i, c := range cfg.OldClients {
		if c == nil {
			rep.SlicesLost++
			continue
		}
		wg.Add(1)
		go func(i int, c *server.Client) {
			defer wg.Done()
			state, info, err := c.ExportState()
			if err != nil {
				errs[i] = fmt.Errorf("rebalance: exporting shard %d (%s): %w", i, cfg.OldAddrs[i], err)
				return
			}
			if info.SeqR != cfg.SeqR || info.SeqS != cfg.SeqS {
				errs[i] = fmt.Errorf("rebalance: shard %d (%s) paused at seqs (%d,%d), want (%d,%d)",
					i, cfg.OldAddrs[i], info.SeqR, info.SeqS, cfg.SeqR, cfg.SeqS)
				return
			}
			slices[i] = state
		}(i, c)
	}
	wg.Wait()
	var exportErr error
	for i, err := range errs {
		if err != nil && exportErr == nil {
			exportErr = err
		}
		if err != nil {
			// The session died mid-export; its slice is gone either way.
			rep.SlicesLost++
			slices[i] = nil
		}
	}
	if exportErr != nil {
		cfg.logf("rebalance: export failed, restoring %d-shard layout: %v", len(cfg.OldAddrs), exportErr)
		restored := cfg.restore(slices, &rep)
		rep.Aborted = true
		rep.Duration = time.Since(start)
		return restored, rep, exportErr
	}
	var pooled []core.Input
	for _, s := range slices {
		pooled = append(pooled, s...)
	}
	rep.TuplesMigrated = uint64(len(pooled))
	cfg.logf("rebalance: exported %d window tuples from %d shards at seqs (%d,%d)",
		len(pooled), len(cfg.OldAddrs), cfg.SeqR, cfg.SeqS)

	// Phase 2: re-partition by the new modulus.
	newSlices := Reslice(pooled, len(cfg.NewAddrs))

	// Phase 3: dial the new layout and install each slice. Any failure
	// aborts back to the old layout — the exported state is still held.
	newClients := make([]*server.Client, len(cfg.NewAddrs))
	abort := func(cause error) ([]*server.Client, Report, error) {
		for _, c := range newClients {
			if c != nil {
				c.Close()
			}
		}
		cfg.logf("rebalance: aborting, restoring %d-shard layout: %v", len(cfg.OldAddrs), cause)
		restored := cfg.restore(slices, &rep)
		rep.Aborted = true
		rep.Duration = time.Since(start)
		return restored, rep, cause
	}
	for j, addr := range cfg.NewAddrs {
		c, err := server.DialWith(addr, cfg.openConfig(len(cfg.NewAddrs), j), cfg.DialOptions)
		if err != nil {
			return abort(fmt.Errorf("rebalance: dialing new shard %d (%s): %w", j, addr, err))
		}
		newClients[j] = c
	}
	importErrs := make([]error, len(newClients))
	for j, c := range newClients {
		wg.Add(1)
		go func(j int, c *server.Client) {
			defer wg.Done()
			if err := c.ImportState(newSlices[j]); err != nil {
				importErrs[j] = fmt.Errorf("rebalance: importing into shard %d (%s): %w", j, cfg.NewAddrs[j], err)
			}
		}(j, c)
	}
	wg.Wait()
	for _, err := range importErrs {
		if err != nil {
			return abort(err)
		}
	}
	rep.Duration = time.Since(start)
	cfg.logf("rebalance: %d→%d shards complete, %d tuples migrated in %v",
		rep.OldShards, rep.NewShards, rep.TuplesMigrated, rep.Duration)
	return newClients, rep, nil
}

// restore re-creates the old layout from exported slices: one fresh
// session per old endpoint, its slice re-imported. A shard that cannot be
// restored comes back nil — its slice is lost, the same degradation the
// router already survives for a crashed shard.
func (cfg Config) restore(slices [][]core.Input, rep *Report) []*server.Client {
	restored := make([]*server.Client, len(cfg.OldAddrs))
	var migrated uint64
	for i, addr := range cfg.OldAddrs {
		c, err := server.DialWith(addr, cfg.openConfig(len(cfg.OldAddrs), i), cfg.DialOptions)
		if err != nil {
			cfg.logf("rebalance: restore: dialing old shard %d (%s): %v", i, addr, err)
			if slices[i] != nil {
				rep.SlicesLost++
			}
			continue
		}
		if err := c.ImportState(slices[i]); err != nil {
			cfg.logf("rebalance: restore: re-importing into shard %d (%s): %v", i, addr, err)
			c.Close()
			if slices[i] != nil {
				rep.SlicesLost++
			}
			continue
		}
		migrated += uint64(len(slices[i]))
		restored[i] = c
	}
	rep.TuplesMigrated = migrated
	return restored
}

// Reslice partitions pooled window state by residue class under the new
// modulus, each slice in the order ImportState requires: ascending
// per-side sequence, R before S. Exported for the shard router's restore
// path, which re-slices a recovered global snapshot over its shard set.
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
