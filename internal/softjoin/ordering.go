package softjoin

import (
	"container/heap"

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

// flush emits everything left, in order.
func (rb *reorderBuffer) flush(emit func(stream.Result)) {
	for rb.heap.Len() > 0 {
		emit(heap.Pop(&rb.heap).(taggedResult).res)
	}
}
