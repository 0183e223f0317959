// Package softjoin provides the software realizations of the two flow-based
// parallel stream joins on a multicore host, mirroring the SplitJoin
// software release the paper benchmarks in Figures 14d and 16:
//
//   - UniFlow: the SplitJoin architecture — a distributor thread broadcasts
//     every incoming tuple (in batches) to N independent join-core
//     goroutines; each core stores every N-th tuple of each stream into its
//     local sub-window (round-robin, coordination-free) and probes its
//     sub-window of the opposite stream; each core hands its whole result
//     vector per input batch to the shared result-batch channel (relaxed
//     mode) or to the reorder stage (ordered mode).
//   - BiFlow: a handshake-join chain of goroutines for baseline comparison.
//
// Unlike the hardware packages, these engines use real concurrency; their
// throughput and latency are measured in wall-clock time on the host.
package softjoin

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// Config parameterizes a software join engine.
type Config struct {
	// NumCores is the number of join-core goroutines.
	NumCores int
	// WindowSize is the total per-stream window. It need not divide evenly
	// across the cores; each core rounds its sub-window up.
	WindowSize int
	// Condition is the join condition. Defaults to the equi-join on key.
	Condition stream.JoinCondition
	// BatchSize is the number of tuples per distribution batch. SplitJoin
	// distributes in chunks to amortize hand-off costs. Defaults to 64.
	BatchSize int
	// ChannelDepth is the buffering (in batches) of the distribution and
	// gathering channels. Defaults to 4.
	ChannelDepth int
	// OrderedResults enables SplitJoin's punctuated ordering: results are
	// released in the arrival order of the tuples that produced them,
	// gated by the slowest core's progress. The default (relaxed) mode
	// forwards results as soon as any core produces them.
	OrderedResults bool
	// ShardCount and ShardIndex place this engine in a sharded SplitJoin
	// deployment (uni-flow only): every tuple still probes this engine's
	// windows, but only tuples whose per-side arrival index is
	// ≡ ShardIndex (mod ShardCount) are stored, spread round-robin over
	// the engine's cores. With the streams broadcast to ShardCount such
	// engines (one per residue class, each holding global-window/ShardCount
	// tuples per side), the union of their results equals an unsharded
	// join over the global window. ShardCount 0 or 1 means unsharded.
	ShardCount int
	ShardIndex int
	// BaseSeqR and BaseSeqS start the per-side arrival counters (sequence
	// numbers and store turns) at an offset; a shard router uses this to
	// resume the global arrival count when it re-opens a failed shard's
	// session mid-stream.
	BaseSeqR uint64
	BaseSeqS uint64
	// ProbeKernel selects the window-probe kernel the join cores run.
	// KernelAuto (the zero value) resolves per condition: the hash-index
	// kernel for the equi-join on key, the block-scan kernel otherwise.
	// KernelHash may only be forced together with the equi-join condition.
	ProbeKernel stream.ProbeKernel
}

func (cfg *Config) applyDefaults() {
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 64
	}
	if cfg.ChannelDepth == 0 {
		cfg.ChannelDepth = 4
	}
	if cfg.Condition == (stream.JoinCondition{}) {
		cfg.Condition = stream.EquiJoinOnKey()
	}
	if cfg.ShardCount == 0 {
		cfg.ShardCount = 1
	}
}

// Validate checks the configuration.
func (cfg Config) Validate() error {
	if cfg.NumCores <= 0 {
		return fmt.Errorf("softjoin: NumCores must be positive, got %d", cfg.NumCores)
	}
	if cfg.WindowSize <= 0 {
		return fmt.Errorf("softjoin: WindowSize must be positive, got %d", cfg.WindowSize)
	}
	if cfg.BatchSize < 0 || cfg.ChannelDepth < 0 {
		return fmt.Errorf("softjoin: BatchSize and ChannelDepth must be non-negative")
	}
	if cfg.ShardCount < 0 {
		return fmt.Errorf("softjoin: ShardCount must be non-negative, got %d", cfg.ShardCount)
	}
	if cfg.ShardCount > 1 && (cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.ShardCount) {
		return fmt.Errorf("softjoin: ShardIndex %d out of range [0,%d)", cfg.ShardIndex, cfg.ShardCount)
	}
	if cfg.ShardCount <= 1 && cfg.ShardIndex != 0 {
		return fmt.Errorf("softjoin: ShardIndex %d without a ShardCount", cfg.ShardIndex)
	}
	if !cfg.ProbeKernel.Valid() {
		return fmt.Errorf("softjoin: unknown probe kernel code %d", cfg.ProbeKernel)
	}
	if cfg.ProbeKernel == stream.KernelHash && cfg.Condition != stream.EquiJoinOnKey() {
		return fmt.Errorf("softjoin: the hash probe kernel handles only the equi-join on key, not %v", cfg.Condition)
	}
	return cfg.Condition.Validate()
}

// resolveKernel maps KernelAuto to the concrete kernel for the condition:
// the hash index can only answer the equi-join on key, the block scan
// answers anything.
func (cfg Config) resolveKernel() stream.ProbeKernel {
	if cfg.ProbeKernel != stream.KernelAuto {
		return cfg.ProbeKernel
	}
	if cfg.Condition == stream.EquiJoinOnKey() {
		return stream.KernelHash
	}
	return stream.KernelScan
}

// sharded reports whether the configuration assigns a shard role.
func (cfg Config) sharded() bool { return cfg.ShardCount > 1 }

// subWindowSize is the per-core sub-window. Unlike the hardware designs
// (whose BRAMs are provisioned in equal sub-windows), the software engine
// accepts windows that do not divide evenly: each core rounds its share up,
// so the effective total window is NumCores·⌈W/N⌉ ≥ W.
func (cfg Config) subWindowSize() int {
	return (cfg.WindowSize + cfg.NumCores - 1) / cfg.NumCores
}

// UniFlow is the software SplitJoin engine. Build with NewUniFlow, feed it
// with Push/PushBatch from a single producer goroutine, consume Batches
// (or Results, never both), and Close it to drain and release all
// goroutines.
type UniFlow struct {
	cfg       Config
	subWindow int
	kernel    stream.ProbeKernel // concrete (resolved) probe kernel

	in      chan *inputBatch
	pending *inputBatch
	cores   []*softCore
	// batches is the engine's one output: relaxed-mode cores send their
	// result vectors straight into it; in ordered mode they send slabs to
	// the reorder goroutine, which sends released runs into it. results is
	// the per-result view of it, started by the first Results call.
	batches chan *stream.ResultBatch
	slabs   chan *resultSlab // ordered mode only
	results stream.ResultsView

	wg      sync.WaitGroup
	coreWG  sync.WaitGroup
	started bool
	closed  bool

	seqR, seqS uint64

	injected  atomic.Uint64
	collected atomic.Uint64
	// slabsDone counts per-core result vectors fully handed into
	// e.batches. Together with the per-core slabsSent counters it gives
	// Quiesce a sound completion test: a core increments slabsSent before
	// publishing its processed watermark, so once every core shows
	// processed == injected the sum of slabsSent is final, and once
	// slabsDone catches up every result is in e.batches.
	slabsDone atomic.Uint64
}

// softCore is one join-core goroutine's state.
type softCore struct {
	part    core.Partition
	cond    stream.JoinCondition
	kernel  stream.ProbeKernel // concrete kernel: KernelHash or KernelScan
	ordered bool               // ordered mode needs a slab (punctuation) per batch, even empty
	in      chan *inputBatch
	windowR *stream.SlidingWindow
	windowS *stream.SlidingWindow
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

// NewUniFlow builds (but does not start) the engine.
func NewUniFlow(cfg Config) (*UniFlow, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &UniFlow{
		cfg:       cfg,
		subWindow: cfg.subWindowSize(),
		kernel:    cfg.resolveKernel(),
		in:        make(chan *inputBatch, cfg.ChannelDepth),
		// One result vector per in-flight input batch per core: depth
		// mirrors the input side.
		batches: make(chan *stream.ResultBatch, cfg.NumCores*(cfg.ChannelDepth+1)),
	}
	e.seqR, e.seqS = cfg.BaseSeqR, cfg.BaseSeqS
	if cfg.OrderedResults {
		e.slabs = make(chan *resultSlab, cap(e.batches))
	}
	for i := 0; i < cfg.NumCores; i++ {
		c := &softCore{
			part:    core.Partition{NumCores: cfg.NumCores, Position: i},
			cond:    cfg.Condition,
			kernel:  e.kernel,
			ordered: cfg.OrderedResults,
			in:      make(chan *inputBatch, cfg.ChannelDepth),
			windowR: stream.NewSlidingWindow(cfg.subWindowSize()),
			windowS: stream.NewSlidingWindow(cfg.subWindowSize()),
			class:   uint64(cfg.ShardIndex + cfg.ShardCount*i),
			stride:  uint64(cfg.ShardCount * cfg.NumCores),
		}
		c.setCounts(cfg.BaseSeqR, cfg.BaseSeqS)
		if e.kernel == stream.KernelHash {
			c.idxR = stream.NewKeyIndex(c.windowR)
			c.idxS = stream.NewKeyIndex(c.windowS)
			c.matchBuf = make([]stream.Tuple, 0, 64)
		}
		e.cores = append(e.cores, c)
	}
	return e, nil
}

// Kernel returns the concrete probe kernel the join cores run (never
// KernelAuto — resolution happens at construction).
func (e *UniFlow) Kernel() stream.ProbeKernel { return e.kernel }

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

// ResultsEmitted returns how many results have been handed to the output
// channel. At a quiesce boundary this is the exact number of results the
// input consumed so far produces — the flush target a checkpointing
// session waits on before declaring a snapshot durable.
func (e *UniFlow) ResultsEmitted() uint64 { return e.collected.Load() }

// Start launches the distributor, the join cores, and — in ordered mode —
// the reorder stage.
func (e *UniFlow) Start() error {
	if e.started {
		return fmt.Errorf("softjoin: engine already started")
	}
	e.started = true

	// Join cores.
	for _, c := range e.cores {
		c := c
		e.wg.Add(1)
		e.coreWG.Add(1)
		go func() {
			defer e.wg.Done()
			defer e.coreWG.Done()
			c.run(e)
		}()
	}

	// Distributor: broadcast each pooled batch to every core. The cores
	// share the batch read-only; the reference count lets the last one to
	// finish recycle it.
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for b := range e.in {
			b.refs.Store(int32(len(e.cores)))
			for _, c := range e.cores {
				c.in <- b
			}
		}
		for _, c := range e.cores {
			close(c.in)
		}
	}()

	// Relaxed mode has no gathering stage: every core sends its result
	// vector straight into e.batches, which closes once the last core has
	// exited.
	if !e.cfg.OrderedResults {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.coreWG.Wait()
			close(e.batches)
		}()
		return nil
	}

	// Ordered mode: the cores feed one shared slab channel drained by a
	// single reordering goroutine, which emits each release round as one
	// output batch.
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.coreWG.Wait()
		close(e.slabs)
	}()
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		defer close(e.batches)
		var rb reorderBuffer
		watermarks := make([]uint64, len(e.cores))
		out := releaseBatches.Get()
		flush := func() {
			if len(out.Results) == 0 {
				return
			}
			n := uint64(len(out.Results))
			e.batches <- out
			// Counted after the hand-off: ResultsEmitted is a flush
			// target, so it may only cover results a consumer can reach.
			e.collected.Add(n)
			out = releaseBatches.Get()
		}
		emit := func(r stream.Result) {
			out.Results = append(out.Results, r)
			if len(out.Results) == releaseBatchResults {
				flush()
			}
		}
		for slab := range e.slabs {
			for i, idx := range slab.idx {
				rb.add(taggedResult{res: slab.batch.Results[i], idx: idx})
			}
			// The slab header is the punctuation: everything this core
			// produced for arrivals below its watermark is now buffered.
			watermarks[slab.core] = slab.processed
			putSlab(slab)
			low := watermarks[0]
			for _, w := range watermarks[1:] {
				if w < low {
					low = w
				}
			}
			rb.release(low, emit)
			flush()
			// Counted only after the release is handed off: at a quiesce
			// point every core's watermark equals the injected count, so
			// the final release drains the buffer before the count goes
			// final.
			e.slabsDone.Add(1)
		}
		rb.flush(emit)
		flush()
		out.Release()
	}()
	return nil
}

// releaseBatchResults caps one ordered-mode output batch, so a release
// round that frees a long run of buffered results reaches the consumer in
// bounded pieces instead of one vector the pool would refuse to keep.
const releaseBatchResults = 1024

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
			slab.core = c.part.Position
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

// Push submits one tuple. It assigns the per-stream sequence number and
// blocks when the pipeline is saturated (backpressure). Single-producer.
func (e *UniFlow) Push(side stream.Side, t stream.Tuple) {
	if side == stream.SideR {
		t.Seq = e.seqR
		e.seqR++
	} else {
		t.Seq = e.seqS
		e.seqS++
	}
	if e.pending == nil {
		e.pending = getInputBatch()
	}
	e.pending.items = append(e.pending.items, core.Input{Side: side, Tuple: t})
	if len(e.pending.items) >= e.cfg.BatchSize {
		e.flushBatch()
	}
}

// PushBatch submits a prepared batch. The engine copies the batch into a
// pooled distribution buffer and assigns sequence numbers on its copy, so
// the caller may reuse (or refill) the slice as soon as PushBatch returns
// — the property the server session's ingest relies on to decode every
// frame into one persistent buffer.
func (e *UniFlow) PushBatch(batch []core.Input) {
	if len(batch) == 0 {
		return
	}
	e.flushBatch()
	b := getInputBatch()
	b.items = append(b.items, batch...)
	for i := range b.items {
		if b.items[i].Side == stream.SideR {
			b.items[i].Tuple.Seq = e.seqR
			e.seqR++
		} else {
			b.items[i].Tuple.Seq = e.seqS
			e.seqS++
		}
	}
	e.injected.Add(uint64(len(b.items)))
	e.in <- b
}

func (e *UniFlow) flushBatch() {
	if e.pending == nil || len(e.pending.items) == 0 {
		return
	}
	b := e.pending
	e.pending = nil
	e.injected.Add(uint64(len(b.items)))
	e.in <- b
}

// Batches returns the engine's output: one pooled batch per core per
// input batch that produced matches (relaxed mode) or per release round
// (ordered mode). The receiver owns each batch and must Release it. The
// channel is closed after Close once all in-flight work has drained.
// Batches and Results are mutually exclusive consumers: whichever is
// used first owns the output for the engine's lifetime.
func (e *UniFlow) Batches() <-chan *stream.ResultBatch { return e.batches }

// Results returns the output one result at a time, for in-process callers
// that want a plain channel. The first call starts the one goroutine that
// unrolls Batches; it exits when the engine's output closes, so the
// channel is closed after Close once all in-flight work has drained.
func (e *UniFlow) Results() <-chan stream.Result {
	return e.results.Of(e.batches, e.cfg.ChannelDepth*e.cfg.BatchSize+1)
}

// Close flushes pending input, stops the pipeline, and waits for every
// goroutine to exit. The output (Batches or Results) must be drained
// concurrently or Close may block forever.
func (e *UniFlow) Close() error {
	if !e.started {
		return fmt.Errorf("softjoin: engine not started")
	}
	if e.closed {
		return nil
	}
	e.closed = true
	e.flushBatch()
	close(e.in)
	e.wg.Wait()
	return nil
}

// Injected returns how many tuples were submitted.
func (e *UniFlow) Injected() uint64 { return e.injected.Load() }

// Collected returns how many results were gathered.
func (e *UniFlow) Collected() uint64 { return e.collected.Load() }

// Processed returns the total per-core tuple processing count (each tuple is
// processed once by every core).
func (e *UniFlow) Processed() uint64 {
	var sum uint64
	for _, c := range e.cores {
		sum += c.processed.Load()
	}
	return sum
}

// Comparisons returns the total number of window comparisons performed.
func (e *UniFlow) Comparisons() uint64 {
	var sum uint64
	for _, c := range e.cores {
		sum += c.compared.Load()
	}
	return sum
}

// StoredPerCore returns each core's stored-tuple counts for one stream.
func (e *UniFlow) StoredPerCore(side stream.Side) []uint64 {
	out := make([]uint64, len(e.cores))
	for i, c := range e.cores {
		if side == stream.SideR {
			out[i] = c.storedR.Load()
		} else {
			out[i] = c.storedS.Load()
		}
	}
	return out
}
