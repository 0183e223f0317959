package server

import (
	"fmt"
	"sync/atomic"

	"accelstream/internal/core"
	"accelstream/internal/hwjoin"
	"accelstream/internal/softjoin"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// Engine is the server-side abstraction over the join engines a session
// can run: the software uni-flow (SplitJoin) and bi-flow (handshake join)
// engines, and the cycle-level simulated uni-flow design for small
// windows. PushBatch assigns arrival sequence numbers in wire order and
// blocks under engine backpressure; it must NOT retain the batch slice
// after returning — the session decodes every frame into one persistent
// buffer and reuses it immediately (copy the batch if the implementation
// needs it beyond the call). Results is closed after Close once all
// in-flight work has drained. Close releases what the factory acquired,
// even if Start failed or never ran: a session calls it exactly once on
// every engine its factory returned, on every exit, before the session's
// admission lease is released. Config.NewEngine lets an embedder substitute
// its own implementation (the shard router daemon serves a whole cluster
// behind this interface).
//
// Results and the optional ResultBatcher capability are mutually
// exclusive consumers of an engine's output: a session drains an engine
// that implements ResultBatcher only through NextResultBatch and never
// calls its Results, and drains every other engine only through Results.
// Nothing else may receive from either while the session runs — Backlog
// and the Snapshotter counters must be answered from counters, not by
// touching the output.
type Engine interface {
	Start() error
	PushBatch(batch []core.Input) error
	Results() <-chan stream.Result
	Close() error
	Backlog() int
}

// StateImporter is the optional engine capability behind the rebalance
// import path: ImportState installs a window-state slice into a freshly
// opened engine before its first batch. A session accepts FrameStateChunk
// only when its engine implements this.
type StateImporter interface {
	ImportState(tuples []core.Input) error
}

// Snapshotter is the optional engine capability behind every state cut —
// durable checkpoints and the rebalance hand-off alike. SnapshotState
// quiesces the engine at a punctuation boundary, returns the resident
// window state (ascending per-side sequence order) with the per-side
// arrival counters at the boundary, and leaves the engine running.
// ResultsEmitted reports how many results have been handed to the Results
// channel — at the quiesce boundary that count is exact, so a session can
// wait until every pre-snapshot result has reached the connection before
// handing the state on. A session honors FrameCheckpoint,
// FrameRebalancePrepare and the automatic checkpoint interval only when
// its engine implements this.
type Snapshotter interface {
	SnapshotState() (tuples []core.Input, seqR, seqS uint64, err error)
	ResultsEmitted() uint64
}

// ResultBatcher is the optional engine capability behind the
// batch-granular result path. NextResultBatch hands over the engine's
// next pooled result batch: with wait it blocks until one is ready and
// reports false once Close has drained the output; without wait it
// returns (nil, true) at once when nothing is ready, which is how the
// session learns it may stop packing small batches into a shared frame.
// The session owns each batch it is handed, encodes frames from it and
// releases it — no result crosses a channel on its own. Engines without
// the capability are served through Results(), coalesced into the same
// batch type.
//
// The method name is deliberately not one softjoin.UniFlow exports: an
// embedder's Engine that embeds *softjoin.UniFlow and overrides Results()
// (to tap or decorate the stream) would otherwise have the capability
// promoted onto it and be drained behind its own override's back.
type ResultBatcher interface {
	NextResultBatch(wait bool) (b *stream.ResultBatch, ok bool)
}

// buildEngine instantiates the engine a session requested, from the
// config its handshake validated.
func buildEngine(cfg wire.OpenConfig) (Engine, error) {
	switch cfg.Engine {
	case wire.EngineSoftUni:
		e, err := softjoin.NewUniFlow(softjoin.Config{
			NumCores:       cfg.Cores,
			WindowSize:     cfg.Window,
			OrderedResults: cfg.Ordered,
			ShardCount:     cfg.ShardCount,
			ShardIndex:     cfg.ShardIndex,
			BaseSeqR:       cfg.BaseSeqR,
			BaseSeqS:       cfg.BaseSeqS,
			ProbeKernel:    cfg.ProbeKernel,
		})
		if err != nil {
			return nil, err
		}
		return &uniEngine{UniFlow: e, batchOutput: batchOutput{src: e}}, nil
	case wire.EngineSoftBi:
		e, err := softjoin.NewBiFlow(softjoin.Config{
			NumCores:   cfg.Cores,
			WindowSize: cfg.Window,
		})
		if err != nil {
			return nil, err
		}
		return &biEngine{BiFlow: e, batchOutput: batchOutput{src: e}}, nil
	case wire.EngineSimUni:
		return newSimEngine(cfg.Cores, cfg.Window)
	default:
		return nil, fmt.Errorf("server: unsupported engine %v", cfg.Engine)
	}
}

// kernelReporter is the optional engine capability behind the probe-kernel
// metrics: the concrete (resolved) kernel the engine's cores run.
type kernelReporter interface {
	Kernel() stream.ProbeKernel
}

// batchOutput is the ResultBatcher both software engines are served
// through: the session drains the engine's batch output, and Backlog is
// answered from counters, since nothing but the session may touch the
// output.
type batchOutput struct {
	src interface {
		Batches() <-chan *stream.ResultBatch
		Collected() uint64 // results handed to Batches
	}
	// taken counts results handed to the session by NextResultBatch.
	taken atomic.Uint64
}

// NextResultBatch implements ResultBatcher over the engine's batch output.
func (o *batchOutput) NextResultBatch(wait bool) (*stream.ResultBatch, bool) {
	b, ok := stream.ReceiveBatch(o.src.Batches(), wait)
	if b != nil {
		o.taken.Add(uint64(len(b.Results)))
	}
	return b, ok
}

// Backlog is the results emitted by the cores but not yet taken by the
// session.
func (o *batchOutput) Backlog() int {
	emitted, taken := o.src.Collected(), o.taken.Load()
	if taken > emitted {
		// A batch is counted as emitted only after its hand-off, so the
		// session can have taken it a moment before the core counts it.
		return 0
	}
	return int(emitted - taken)
}

// uniEngine adapts softjoin.UniFlow. Kernel() is promoted from the
// embedded engine, so uniEngine satisfies kernelReporter.
type uniEngine struct {
	*softjoin.UniFlow
	batchOutput
}

func (e *uniEngine) PushBatch(batch []core.Input) error {
	e.UniFlow.PushBatch(batch)
	return nil
}

// biEngine adapts softjoin.BiFlow, whose ingest API is per tuple.
type biEngine struct {
	*softjoin.BiFlow
	batchOutput
}

func (e *biEngine) PushBatch(batch []core.Input) error {
	for i := range batch {
		e.BiFlow.Push(batch[i].Side, batch[i].Tuple)
	}
	return nil
}

// simEngine adapts the cycle-level simulated uni-flow FPGA design to the
// streaming interface: each pushed batch is queued onto the simulated
// ingress bus, the design is stepped to quiescence, and the results the
// sink drained are taken from it and forwarded. Processing is synchronous
// in the caller (one bus word per simulated cycle), which is why the wire
// protocol caps the simulated engine's window size.
type simEngine struct {
	design   *hwjoin.UniFlowDesign
	queue    []hwjoin.Flit
	results  chan stream.Result
	seqR     uint64
	seqS     uint64
	closed   bool
	cycleCap uint64 // per-tuple quiescence budget
}

func newSimEngine(cores, window int) (*simEngine, error) {
	e := &simEngine{
		results: make(chan stream.Result, 1024),
	}
	d, err := hwjoin.BuildUniFlow(hwjoin.UniFlowConfig{
		NumCores:   cores,
		WindowSize: window,
	}, true, e.next)
	if err != nil {
		return nil, err
	}
	e.design = d
	// Worst case a tuple occupies the bus for one full sub-window scan
	// plus the network pipeline depths; a generous multiple keeps the
	// budget a safety net rather than a limiter.
	e.cycleCap = uint64(8*d.SubWindowSize() + 64)
	return e, nil
}

// next feeds the design's Source from the queued batch; an empty queue
// reports exhaustion, which PushBatch clears via Reopen.
func (e *simEngine) next() (hwjoin.Flit, bool) {
	if len(e.queue) == 0 {
		return hwjoin.Flit{}, false
	}
	f := e.queue[0]
	e.queue = e.queue[1:]
	return f, true
}

func (e *simEngine) Start() error { return nil }

func (e *simEngine) PushBatch(batch []core.Input) error {
	if e.closed {
		return fmt.Errorf("server: simulated engine already closed")
	}
	for i := range batch {
		t := batch[i].Tuple
		if batch[i].Side == stream.SideR {
			t.Seq = e.seqR
			e.seqR++
		} else {
			t.Seq = e.seqS
			e.seqS++
		}
		e.queue = append(e.queue, hwjoin.TupleFlit(batch[i].Side, t))
	}
	return e.drain(uint64(len(batch))*e.cycleCap + 4096)
}

// drain steps the simulation until quiescent and forwards new results.
func (e *simEngine) drain(budget uint64) error {
	e.design.Source().Reopen()
	if _, err := e.design.RunToQuiescence(budget); err != nil {
		return fmt.Errorf("server: simulated engine did not quiesce: %w", err)
	}
	for _, r := range e.design.Sink().Take() {
		e.results <- r // blocks: engine backpressure
	}
	return nil
}

func (e *simEngine) Results() <-chan stream.Result { return e.results }

func (e *simEngine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	err := e.drain(e.cycleCap * 16)
	close(e.results)
	return err
}

func (e *simEngine) Backlog() int { return len(e.results) }
