package softjoin

import (
	"sync"
	"sync/atomic"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// Hot-path pooling: the software engines' analogue of the FPGA designs'
// zero-dynamic-allocation data path. Input batches and result vectors are
// recycled through sync.Pools so the steady-state ingest→probe→emit
// pipeline performs no heap allocation and one channel hand-off per batch
// (not per tuple or per match) — the software stand-in for the hardware's
// wide result bus (Figs. 10–13).

// maxPooledItems bounds the capacity a recycled batch/tag vector may
// retain. A pathological high-selectivity batch can grow one to
// megabytes; dropping oversized backing arrays keeps the pools from
// pinning that memory forever.
const maxPooledItems = 1 << 15

// inputBatch is one distribution batch shared read-only by every join
// core. refs counts the cores still processing it; the last core to
// finish returns it to the pool.
type inputBatch struct {
	refs  atomic.Int32
	items []core.Input
}

var inputBatchPool = sync.Pool{New: func() any { return new(inputBatch) }}

func getInputBatch() *inputBatch {
	b := inputBatchPool.Get().(*inputBatch)
	b.items = b.items[:0]
	return b
}

// release drops one core's reference; the last reference recycles the
// batch. The atomic decrement is the synchronization point that makes the
// reuse race-free.
func (b *inputBatch) release() {
	if b.refs.Add(-1) == 0 {
		if cap(b.items) <= maxPooledItems {
			inputBatchPool.Put(b)
		}
	}
}

// Result vectors are pooled per producing site, so each pool circulates
// one size class: coreBatches holds the uni-flow join cores'
// per-input-batch vectors, releaseBatches the reorder stage's bounded
// release runs, chainBatches the bi-flow chain cores' per-tuple matches.
var coreBatches, releaseBatches, chainBatches stream.ResultBatchPool

// resultSlab is what an ordered-mode core hands the reorder stage for one
// input batch: the batch's result vector, the arrival index of the probing
// tuple of each result, and the punctuation (the core's processed
// watermark) riding in the header. Relaxed mode has no tags and no
// watermarks, so its cores emit the bare *stream.ResultBatch instead.
type resultSlab struct {
	core      int
	processed uint64
	batch     *stream.ResultBatch
	idx       []uint64 // idx[i] tags batch.Results[i]
}

var slabPool = sync.Pool{New: func() any { return new(resultSlab) }}

// getSlab returns a pooled slab wrapped around batch, with no tags yet.
func getSlab(batch *stream.ResultBatch) *resultSlab {
	s := slabPool.Get().(*resultSlab)
	s.batch = batch
	s.idx = s.idx[:0]
	return s
}

// putSlab releases the slab's result batch and recycles the slab.
func putSlab(s *resultSlab) {
	s.batch.Release()
	s.batch = nil
	if cap(s.idx) <= maxPooledItems {
		slabPool.Put(s)
	}
}
