package stream

import "sync"

// ResultBatch is the unit of hand-off on the result path: a join core's
// whole result vector for one input batch, an ordered release round, or
// one decoded Results frame. Every hop the service owns — engine to
// session, client reader to router, router to front session — moves a
// *ResultBatch with one channel operation instead of one per result: the
// software form of keeping the hardware's wide result bus (Figs. 10–13)
// wide all the way to the socket.
//
// Batches are pooled. The producer takes one from its ResultBatchPool and
// fills Results; ownership travels with the pointer, and the final
// consumer calls Release exactly once, after which the batch (and the
// Results backing array) must not be touched.
type ResultBatch struct {
	Results []Result
	pool    *ResultBatchPool // where Release returns the batch; nil: nowhere
}

// Release recycles the batch into the pool it came from. The caller must
// be its sole owner.
func (b *ResultBatch) Release() {
	if b.pool != nil && cap(b.Results) <= maxPooledResults {
		b.pool.p.Put(b)
	}
}

// ResultBatchPool recycles the batches of one producing site. Each site
// (the join cores, a session's frame-sized batches) keeps its own, so the
// capacities circulating in a pool stay the size that site fills and a
// warm batch never has to regrow. The zero value is ready to use.
type ResultBatchPool struct {
	p sync.Pool
}

// maxPooledResults bounds the capacity a recycled batch may retain. A
// pathological high-selectivity input batch can grow a result vector to
// megabytes; dropping oversized backing arrays keeps a pool from pinning
// that memory forever.
const maxPooledResults = 1 << 15

// Get returns an empty batch that Release hands back to this pool.
func (p *ResultBatchPool) Get() *ResultBatch {
	if b, ok := p.p.Get().(*ResultBatch); ok {
		b.Results = b.Results[:0]
		return b
	}
	return &ResultBatch{pool: p}
}

// ReceiveBatch takes the next batch from ch. With wait it blocks and
// reports false once ch is closed and drained; without wait it returns
// (nil, true) at once when nothing is ready. It is the body of a
// pull-style batch source over a batch channel.
func ReceiveBatch(ch <-chan *ResultBatch, wait bool) (b *ResultBatch, ok bool) {
	if wait {
		b, ok = <-ch
		return b, ok
	}
	select {
	case b, ok = <-ch:
		return b, ok
	default:
		return nil, true
	}
}

// ResultsView is the lazily started per-result view of a batch channel,
// the shared body of every Results() accessor beside a Batches() one. The
// first Of call starts the one goroutine that forwards each result of
// each batch, releases the batch, and closes the view once the batch
// channel is closed and drained. It is the only place results cross a
// channel one at a time, and only callers that ask for a plain result
// channel pay for it. The zero value is ready to use.
type ResultsView struct {
	once sync.Once
	out  chan Result
}

// Of returns the view over in, buffering up to depth results; every call
// must pass the same channel. Once a view exists it is in's consumer:
// nothing else may receive from in.
func (v *ResultsView) Of(in <-chan *ResultBatch, depth int) <-chan Result {
	v.once.Do(func() {
		v.out = make(chan Result, depth)
		go func() {
			defer close(v.out)
			for b := range in {
				for i := range b.Results {
					v.out <- b.Results[i]
				}
				b.Release()
			}
		}()
	})
	return v.out
}
