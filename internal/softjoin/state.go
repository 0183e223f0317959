package softjoin

import (
	"fmt"
	"runtime"
	"sort"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// Preload fills the cores' sub-windows round-robin without running the
// engine, mirroring hwjoin.UniFlowDesign.Preload. Must be called before
// Start.
func (e *UniFlow) Preload(r, s []stream.Tuple) error {
	if e.started {
		return fmt.Errorf("softjoin: Preload must precede Start")
	}
	if e.cfg.sharded() || e.cfg.BaseSeqR != 0 || e.cfg.BaseSeqS != 0 {
		return fmt.Errorf("softjoin: Preload is unavailable on a sharded or offset engine")
	}
	n := e.cfg.NumCores
	fill := func(side stream.Side, tuples []stream.Tuple) {
		for i, t := range tuples {
			e.cores[i%n].store(side, t)
		}
	}
	if len(r) > e.cfg.WindowSize || len(s) > e.cfg.WindowSize {
		return fmt.Errorf("softjoin: preload exceeds window size %d", e.cfg.WindowSize)
	}
	fill(stream.SideR, r)
	fill(stream.SideS, s)
	// Core i got every n-th tuple from index i on.
	share := func(total, i int) uint64 { return uint64((total - i + n - 1) / n) }
	for i, c := range e.cores {
		c.noteStored(share(len(r), i), share(len(s), i))
		c.setCounts(uint64(len(r)), uint64(len(s)))
	}
	e.seqR = uint64(len(r))
	e.seqS = uint64(len(s))
	return nil
}

// ImportState installs previously exported sliding-window state into the
// engine before any tuple has been pushed: the rebalance path that hands a
// shard its residue-class slice of the global window. Each tuple is routed
// to the core its arrival sequence number selects under the engine's
// two-level store turn, so probing behaves exactly as if the engine had
// ingested the tuple itself. Tuples must arrive in ascending per-side
// sequence order (window eviction order follows insertion order) and must
// belong to this engine's residue class with sequence numbers below the
// engine's base counters. ImportState may be called after Start — a core
// only reads its windows after receiving a batch, and the channel hand-off
// orders these writes before that read — but never after ingest begins.
func (e *UniFlow) ImportState(tuples []core.Input) error {
	if e.closed {
		return fmt.Errorf("softjoin: ImportState on a closed engine")
	}
	if e.injected.Load() != 0 || e.pending != nil {
		return fmt.Errorf("softjoin: ImportState must precede the first pushed tuple")
	}
	shardN := uint64(e.cfg.ShardCount)
	cores := uint64(len(e.cores))
	storedR := make([]uint64, len(e.cores))
	storedS := make([]uint64, len(e.cores))
	defer func() {
		for i, c := range e.cores {
			c.noteStored(storedR[i], storedS[i])
		}
	}()
	for i := range tuples {
		side, t := tuples[i].Side, tuples[i].Tuple
		base := e.cfg.BaseSeqR
		if side == stream.SideS {
			base = e.cfg.BaseSeqS
		}
		if t.Seq >= base {
			return fmt.Errorf("softjoin: imported %v tuple seq %d is not below base %d", side, t.Seq, base)
		}
		if t.Seq%shardN != uint64(e.cfg.ShardIndex) {
			return fmt.Errorf("softjoin: imported %v tuple seq %d is outside residue class %d (mod %d)",
				side, t.Seq, e.cfg.ShardIndex, shardN)
		}
		k := (t.Seq / shardN) % cores
		e.cores[k].store(side, t)
		if side == stream.SideR {
			storedR[k]++
		} else {
			storedS[k]++
		}
	}
	return nil
}

// collectState gathers the resident window tuples of every core, sorted in
// ascending per-side sequence order (all of R, then all of S). Callers must
// hold the engine at a punctuation boundary: closed, or quiesced.
func (e *UniFlow) collectState() []core.Input {
	var out []core.Input
	for _, side := range []stream.Side{stream.SideR, stream.SideS} {
		var tuples []stream.Tuple
		for _, c := range e.cores {
			w := c.windowR
			if side == stream.SideS {
				w = c.windowS
			}
			tuples = append(tuples, w.Snapshot()...)
		}
		sort.Slice(tuples, func(i, j int) bool { return tuples[i].Seq < tuples[j].Seq })
		for _, t := range tuples {
			out = append(out, core.Input{Side: side, Tuple: t})
		}
	}
	return out
}

// Quiesce drives the running engine to a punctuation boundary without
// closing it: pending input is flushed, then it spin-waits until every
// core has processed every injected tuple and every result slab those
// batches produced has been handed into the output channel. On return
// the windows are safe to read, the sequence counters are stable, and
// Collected() counts every result the input so far can produce — results
// may still sit buffered in the output channel, which the consumer must
// keep draining or Quiesce can block forever. Must be called from the
// single producer goroutine (no concurrent Push).
func (e *UniFlow) Quiesce() error {
	if !e.started {
		return fmt.Errorf("softjoin: Quiesce before Start")
	}
	if e.closed {
		return nil // Close already drained everything
	}
	e.flushBatch()
	inj := e.injected.Load()
	for _, c := range e.cores {
		for c.processed.Load() < inj {
			runtime.Gosched()
		}
	}
	// Every core published processed == injected, and slabsSent is
	// incremented before that publish — the total is final now.
	var sent uint64
	for _, c := range e.cores {
		sent += c.slabsSent.Load()
	}
	for e.slabsDone.Load() < sent {
		runtime.Gosched()
	}
	return nil
}

// SnapshotState quiesces the live engine and returns its resident window
// state (ascending per-side sequence order) together with the per-side
// arrival counters at the boundary — everything a durable checkpoint or a
// rebalance hand-off needs. It leaves the engine running; pushes may
// resume as soon as it returns. On a closed engine it returns the
// terminal state. Tuples carry the sequence numbers they were ingested
// with (the push path always stamps them; Preload does not).
func (e *UniFlow) SnapshotState() ([]core.Input, uint64, uint64, error) {
	if err := e.Quiesce(); err != nil {
		return nil, 0, 0, err
	}
	return e.collectState(), e.seqR, e.seqS, nil
}
