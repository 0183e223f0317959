package softjoin

import (
	"container/heap"
	"math"

	"accelstream/internal/stream"
)

// SplitJoin's "adjustable ordering precision": because the join cores run
// independently, results for later tuples can surface before results for
// earlier ones. The default (relaxed) mode forwards results as they appear
// — maximum throughput. Ordered mode restores deterministic punctuated
// order: results are released sorted by the arrival index of the tuple that
// produced them, gated by the slowest core's progress watermark.

// taggedResult is a result annotated with the global arrival index of the
// probing tuple. Ordered-mode cores emit per-batch slabs (resultSlab):
// results, their tags, and a header carrying the punctuation — the
// core's processed watermark after the batch. Because a channel preserves
// each sender's FIFO order, receiving a slab guarantees every result that
// core produced for earlier arrivals has already been received — the
// property that makes the ordered release safe.
type taggedResult struct {
	res stream.Result
	idx uint64
}

// resultHeap is a min-heap of tagged results by arrival index.
type resultHeap []taggedResult

func (h resultHeap) Len() int            { return len(h) }
func (h resultHeap) Less(i, j int) bool  { return h[i].idx < h[j].idx }
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(taggedResult)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// reorderBuffer gates tagged results on a progress watermark.
type reorderBuffer struct {
	heap resultHeap
}

// add buffers one tagged result.
func (rb *reorderBuffer) add(tr taggedResult) {
	heap.Push(&rb.heap, tr)
}

// release emits every buffered result whose probing tuple is fully
// processed (arrival index < watermark), in arrival order.
func (rb *reorderBuffer) release(watermark uint64, emit func(stream.Result)) {
	for rb.heap.Len() > 0 && rb.heap[0].idx < watermark {
		emit(heap.Pop(&rb.heap).(taggedResult).res)
	}
}

// releaseBatchResults caps one ordered-mode output batch, so a release
// round that frees a long run of buffered results reaches the consumer in
// bounded pieces instead of one vector the pool would refuse to keep.
const releaseBatchResults = 1024

// reorder is the ordered-mode gathering stage: the cores feed one shared
// slab channel drained by this single goroutine, which emits each release
// round as one output batch and closes the engine's output once the last
// core has closed the slab channel.
func (e *UniFlow) reorder() {
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
	// Every core has exited: everything left is released, in order.
	rb.release(math.MaxUint64, emit)
	flush()
	out.Release()
}
