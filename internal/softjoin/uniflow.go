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
//   - BiFlow: a handshake-join chain of goroutines for baseline comparison;
//     each chain core hands the matches of each probing tuple to the same
//     kind of shared result-batch channel.
//
// Both engines have one output contract: Batches is the output, Results
// is the per-result view of it, and the last join core to exit closes the
// channel the cores feed.
//
// Unlike the hardware packages, these engines use real concurrency; their
// throughput and latency are measured in wall-clock time on the host.
package softjoin

import (
	"fmt"
	"sync"
	"sync/atomic"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// UniFlow is the software SplitJoin engine. Build with NewUniFlow, feed it
// with Push/PushBatch from a single producer goroutine, consume Batches
// (or Results, never both), and Close it to drain and release all
// goroutines.
type UniFlow struct {
	cfg    Config
	kernel stream.ProbeKernel // concrete (resolved) probe kernel

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
	running atomic.Int32 // join cores still running; the last closes their output
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

// NewUniFlow builds (but does not start) the engine.
func NewUniFlow(cfg Config) (*UniFlow, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &UniFlow{
		cfg:    cfg,
		kernel: cfg.resolveKernel(),
		in:     make(chan *inputBatch, cfg.ChannelDepth),
		// One result vector per in-flight input batch per core: depth
		// mirrors the input side.
		batches: make(chan *stream.ResultBatch, cfg.NumCores*(cfg.ChannelDepth+1)),
	}
	e.seqR, e.seqS = cfg.BaseSeqR, cfg.BaseSeqS
	if cfg.OrderedResults {
		e.slabs = make(chan *resultSlab, cap(e.batches))
	}
	for i := 0; i < cfg.NumCores; i++ {
		e.cores = append(e.cores, newCore(cfg, i))
	}
	return e, nil
}

// Kernel returns the concrete probe kernel the join cores run (never
// KernelAuto — resolution happens at construction).
func (e *UniFlow) Kernel() stream.ProbeKernel { return e.kernel }

// ResultsEmitted returns how many results have been handed to the output
// channel. At a quiesce boundary this is the exact number of results the
// input consumed so far produces — the flush target a checkpointing
// session waits on before declaring a snapshot durable.
func (e *UniFlow) ResultsEmitted() uint64 { return e.collected.Load() }

// Start launches the distributor, the join cores, and — in ordered mode —
// the reorder stage.
func (e *UniFlow) Start() error {
	if e.started || e.closed {
		return fmt.Errorf("softjoin: engine already started or closed")
	}
	e.started = true

	// Join cores. The last one to exit closes what they feed: e.batches
	// in relaxed mode, which has no gathering stage, and the reorder
	// stage's slab channel in ordered mode.
	e.running.Store(int32(len(e.cores)))
	for _, c := range e.cores {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			c.run(e)
			if e.running.Add(-1) == 0 {
				if e.slabs != nil {
					close(e.slabs)
				} else {
					close(e.batches)
				}
			}
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

	if e.slabs != nil {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.reorder()
		}()
	}
	return nil
}

// Push submits one tuple. It assigns the per-stream sequence number and
// blocks when the pipeline is saturated (backpressure). Single-producer.
func (e *UniFlow) Push(side stream.Side, t stream.Tuple) {
	t.Seq = e.nextSeq(side)
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
		b.items[i].Tuple.Seq = e.nextSeq(b.items[i].Side)
	}
	e.pending = b
	e.flushBatch()
}

// nextSeq hands out side's next arrival sequence number.
func (e *UniFlow) nextSeq(side stream.Side) (seq uint64) {
	if side == stream.SideR {
		seq = e.seqR
		e.seqR++
	} else {
		seq = e.seqS
		e.seqS++
	}
	return seq
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
// concurrently or Close may block forever. Closing an engine that was
// never started only closes its output; it cannot be started after.
func (e *UniFlow) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	if !e.started {
		close(e.batches)
		return nil
	}
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
