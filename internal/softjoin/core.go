package softjoin

import (
	"math/bits"
	"sync/atomic"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// softCore is one join-core goroutine's state.
type softCore struct {
	position int // index among the engine's cores, named in its slabs
	cond     stream.JoinCondition
	kernel   stream.ProbeKernel // concrete kernel: KernelHash or KernelScan
	ordered  bool               // ordered mode needs a slab (punctuation) per batch, even empty
	in       chan *inputBatch
	windowR  *stream.SlidingWindow
	windowS  *stream.SlidingWindow
	// Hash-kernel state: one incremental key index per sub-window, kept in
	// sync by the store path, plus a reusable match scratch so steady-state
	// probes never allocate. Nil/unused under the scan kernel.
	idxR, idxS *stream.KeyIndex
	matchBuf   []stream.Tuple
	// touched sums the slots prefetch loads, so the compiler keeps them.
	touched uint64

	// countR/countS count each side's arrivals; nextR/nextS is the arrival
	// count of the side's next tuple this core stores. The core stores the
	// arrivals ≡ class (mod stride); see setCounts.
	countR, countS   uint64
	nextR, nextS     uint64
	class, stride    uint64
	storedR, storedS atomic.Uint64
	processed        atomic.Uint64
	compared         atomic.Uint64
	slabsSent        atomic.Uint64
}

// newCore builds join core i of an engine with configuration cfg
// (defaults applied): its sub-windows, its store turn at the base
// counters, and under the hash kernel its key indexes.
func newCore(cfg Config, i int) *softCore {
	c := &softCore{
		position: i,
		cond:     cfg.Condition,
		kernel:   cfg.resolveKernel(),
		ordered:  cfg.OrderedResults,
		in:       make(chan *inputBatch, cfg.ChannelDepth),
		windowR:  stream.NewSlidingWindow(cfg.subWindowSize()),
		windowS:  stream.NewSlidingWindow(cfg.subWindowSize()),
		class:    uint64(cfg.ShardIndex + cfg.ShardCount*i),
		stride:   uint64(cfg.ShardCount * cfg.NumCores),
	}
	c.setCounts(cfg.BaseSeqR, cfg.BaseSeqS)
	if c.kernel == stream.KernelHash {
		c.idxR = stream.NewKeyIndex(c.windowR)
		c.idxS = stream.NewKeyIndex(c.windowS)
		c.matchBuf = make([]stream.Tuple, 0, 64)
	}
	return c
}

// store inserts t into the core's sub-window for side, keeping the probe
// index (hash kernel) in sync. Every window insert — live ingest, preload,
// and state import alike — must go through here, or hash-kernel probes
// would miss the tuple. It does not count: callers tally locally and
// publish once per batch or call with noteStored, because a locked add
// per tuple waits behind the index stores just issued.
func (c *softCore) store(side stream.Side, t stream.Tuple) {
	if side == stream.SideR {
		c.windowR.Insert(t)
		if c.idxR != nil {
			c.idxR.NoteInsert(t.Key)
		}
	} else {
		c.windowS.Insert(t)
		if c.idxS != nil {
			c.idxS.NoteInsert(t.Key)
		}
	}
}

// setCounts starts the per-side arrival counters at r and s and schedules
// each side's next store turn. The two-level turn — the deployment's
// shard residue class first, then round-robin over the engine's cores —
// is one residue class modulo shardN·cores: the n-th arrival is core k's
// iff n ≡ ShardIndex + shardN·k. So run compares instead of dividing, and
// a store advances the turn by the stride.
func (c *softCore) setCounts(r, s uint64) {
	turn := func(n uint64) uint64 { return n + (c.class+c.stride-n%c.stride)%c.stride }
	c.countR, c.countS = r, s
	c.nextR, c.nextS = turn(r), turn(s)
}

// noteStored publishes r and s newly stored tuples to StoredPerCore.
func (c *softCore) noteStored(r, s uint64) {
	if r > 0 {
		c.storedR.Add(r)
	}
	if s > 0 {
		c.storedS.Add(s)
	}
}

// run is the join-core loop: for every tuple in every batch, probe the
// opposite sub-window and store on this core's round-robin turn. The
// store turn is two-level: the deployment-level shard partition picks the
// residue class this engine stores at all, and the engine-level partition
// round-robins the stored subsequence over the cores (for the unsharded
// 1-of-1 shard both collapse to the original per-core turn); setCounts
// folds the two into one counter per side.
func (c *softCore) run(e *UniFlow) {
	out := coreBatches.Get()
	var slab *resultSlab
	if c.ordered {
		slab = getSlab(out)
	}
	for b := range c.in {
		batch := b.items
		if c.idxR != nil {
			c.prefetch(batch)
		}
		// Single-writer counters: keep local copies across the batch and
		// publish once at the end, so the probe loop pays no atomics.
		proc := c.processed.Load()
		var work, storedR, storedS uint64
		for i := range batch {
			in := &batch[i]
			t := in.Tuple
			switch in.Side {
			case stream.SideR:
				work += c.probe(t, stream.SideR, out)
				if c.countR == c.nextR {
					c.store(stream.SideR, t)
					storedR++
					c.nextR += c.stride
				}
				c.countR++
			case stream.SideS:
				work += c.probe(t, stream.SideS, out)
				if c.countS == c.nextS {
					c.store(stream.SideS, t)
					storedS++
					c.nextS += c.stride
				}
				c.countS++
			}
			if slab != nil {
				// Tag what this probe appended with its arrival index.
				for len(slab.idx) < len(out.Results) {
					slab.idx = append(slab.idx, proc)
				}
			}
			proc++
		}
		c.compared.Add(work)
		c.noteStored(storedR, storedS)
		// Decide (and count) the send before publishing the processed
		// watermark: Quiesce reads processed to learn when the slab count
		// is final, so slabsSent must be visible first.
		send := c.ordered || len(out.Results) > 0
		if send {
			c.slabsSent.Add(1)
		}
		c.processed.Store(proc)
		b.release()
		// Hand the batch's whole result vector over with a single send.
		// Relaxed mode has no watermarks, so an empty vector stays here and
		// is reused for the next batch; ordered mode sends one regardless,
		// because the punctuation (processed watermark) rides in the slab
		// header.
		if !send {
			continue
		}
		if slab != nil {
			slab.core = c.position
			slab.processed = proc
			e.slabs <- slab
			out = coreBatches.Get()
			slab = getSlab(out)
			continue
		}
		n := uint64(len(out.Results))
		e.batches <- out
		// Counted after the hand-off, slabsDone last: once Quiesce sees
		// slabsDone catch up, ResultsEmitted already covers the vector.
		e.collected.Add(n)
		e.slabsDone.Add(1)
		out = coreBatches.Get()
	}
	if slab != nil {
		putSlab(slab)
	} else {
		out.Release()
	}
}

// prefetch is the hash kernel's group-prefetch pass over an input batch,
// run before the per-tuple loop: for every tuple it loads the first slot
// of its probe chain in the opposite index and, on its store turn, of its
// insert chain in its own index. The loads are independent of each other,
// so their cache misses overlap, and the per-tuple loop then finds the
// chain heads in cache instead of stalling on one miss per lookup. It
// reads the store turns from copies of the counters run is about to
// advance.
func (c *softCore) prefetch(batch []core.Input) {
	countR, countS, nextR, nextS := c.countR, c.countS, c.nextR, c.nextS
	var sum uint64
	for i := range batch {
		key := batch[i].Tuple.Key
		if batch[i].Side == stream.SideR {
			sum += c.idxS.Touch(key)
			if countR == nextR {
				sum += c.idxR.Touch(key)
				nextR += c.stride
			}
			countR++
		} else {
			sum += c.idxR.Touch(key)
			if countS == nextS {
				sum += c.idxS.Touch(key)
				nextS += c.stride
			}
			countS++
		}
	}
	c.touched += sum
}

// probe matches t against the opposite sub-window, appending results to
// the input batch's result vector, and returns the work it did — what
// Comparisons() counts, summed by run once per input batch so the probe
// loop pays no atomics. The kernel decides the shape of the work:
//
//   - KernelHash looks the key up in the opposite window's incremental
//     index — O(matches) per probe; the work is the index entries the
//     probe chain examined (the loads the kernel actually performed).
//   - KernelScan sweeps the opposite window's dense word column in
//     64-word blocks; the work is every word swept — blocks the level-1
//     reduce dismisses included, they were compared — like the hardware
//     comparator sweep it mirrors.
func (c *softCore) probe(t stream.Tuple, side stream.Side, out *stream.ResultBatch) uint64 {
	if c.kernel == stream.KernelHash {
		return c.probeHash(t, side, out)
	}
	return c.probeScan(t, side, out)
}

// probeHash is the hash-index probe kernel: the software analogue of a GPU
// hash-join probe. Matches surface in probe-chain order, not arrival
// order; ordered mode sequences results by probe arrival only, so the
// within-probe order is free.
func (c *softCore) probeHash(t stream.Tuple, side stream.Side, out *stream.ResultBatch) uint64 {
	ix := c.idxS
	if side == stream.SideS {
		ix = c.idxR
	}
	matches, examined := ix.AppendMatches(t.Key, c.matchBuf[:0])
	c.matchBuf = matches // keep the grown capacity for the next probe
	if side == stream.SideR {
		for _, stored := range matches {
			out.Results = append(out.Results, stream.Result{R: t, S: stored})
		}
	} else {
		for _, stored := range matches {
			out.Results = append(out.Results, stream.Result{R: stored, S: t})
		}
	}
	return uint64(examined)
}

// probeScan is the block-scan probe kernel: a two-level sweep
// (stream.Sweep) of the window's packed word column. Level 1 OR-reduces
// the compare lines of each 64-word block; only blocks in which some lane
// hit get a hit bitmask, and full tuples are materialized only for its set
// bits — the software analogue of a Processing Core's comparator row whose
// OR-tree enables the match FIFO. It evaluates any join condition.
func (c *softCore) probeScan(t stream.Tuple, side stream.Side, out *stream.ResultBatch) uint64 {
	win := c.windowS
	if side == stream.SideS {
		win = c.windowR
	}
	sweep := stream.NewSweep(c.cond.RHS, c.cond.Cmp, c.cond.LHS.Extract(t))
	olderT, newerT := win.Segments()
	olderW, newerW := win.WordSegments()
	for seg := 0; seg < 2; seg++ {
		tuples, words := olderT, olderW
		if seg == 1 {
			tuples, words = newerT, newerW
		}
		for base, mask := sweep.Next(words, 0); mask != 0; base, mask = sweep.Next(words, base+stream.BlockBits) {
			for ; mask != 0; mask &= mask - 1 {
				stored := tuples[base+bits.TrailingZeros64(mask)]
				if side == stream.SideR {
					out.Results = append(out.Results, stream.Result{R: t, S: stored})
				} else {
					out.Results = append(out.Results, stream.Result{R: stored, S: t})
				}
			}
		}
	}
	return uint64(len(olderW) + len(newerW))
}
