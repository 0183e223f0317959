package shard

import (
	"fmt"
	"sync/atomic"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// shardBatch is one broadcast unit: the shared tuple slice plus the
// global arrival counters at its front (the resume point). refs counts
// the shard senders still holding it; the last to release recycles the
// batch into the router's pool, so the steady-state broadcast path reuses
// one copy buffer per in-flight batch instead of allocating per send.
type shardBatch struct {
	inputs []core.Input
	baseR  uint64
	baseS  uint64
	refs   atomic.Int32
	// stop, when non-nil, marks a pause sentinel instead of a batch: the
	// sender closes it and exits WITHOUT tearing down its session, handing
	// session ownership to the paused state operation.
	stop chan struct{}
}

func (r *Router) getBatch() *shardBatch {
	if b, ok := r.batchPool.Get().(*shardBatch); ok {
		b.inputs = b.inputs[:0]
		return b
	}
	return new(shardBatch)
}

// release drops one sender's reference; the last one recycles the batch.
func (b *shardBatch) release(r *Router) {
	if b.refs.Add(-1) == 0 {
		r.batchPool.Put(b)
	}
}

// SendBatch broadcasts one batch of side-tagged tuples to every live
// shard. It blocks while the slowest live shard's queue is full (engine
// backpressure propagated through the per-shard credit windows). The
// caller may reuse the slice once SendBatch returns.
func (r *Router) SendBatch(batch []core.Input) error {
	if len(batch) == 0 {
		return nil
	}
	// sendMu orders this batch against a concurrent Rebalance: the batch
	// lands entirely in one shard generation or entirely in the next.
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	r.mu.Lock()
	closed, failErr := r.closed, r.failErr
	r.mu.Unlock()
	if closed {
		return fmt.Errorf("shard: router closed")
	}
	if failErr != nil {
		return failErr
	}
	// One shared pooled copy serves every shard: senders only read it, and
	// the servers stamp sequence numbers on their own decoded copies.
	b := r.getBatch()
	b.inputs = append(b.inputs, batch...)
	b.baseR, b.baseS = r.seqR, r.seqS
	for i := range b.inputs {
		if b.inputs[i].Side == stream.SideR {
			r.seqR++
		} else {
			r.seqS++
		}
	}
	// Pick the recipients first so the reference count is final before the
	// first sender can possibly release the batch.
	live := r.live[:0]
	for _, sc := range r.shards {
		if sc.down.Load() {
			sc.dropped.Add(1)
			continue
		}
		live = append(live, sc)
	}
	r.live = live
	r.tuplesIn.Add(uint64(len(b.inputs)))
	if len(live) == 0 {
		r.batchPool.Put(b)
		return nil
	}
	b.refs.Store(int32(len(live)))
	for _, sc := range live {
		sc.queue <- b
	}
	return nil
}

// spawnSender starts the shard's dedicated sender goroutine.
func (r *Router) spawnSender(sc *shardConn) {
	r.sendWG.Add(1)
	go func() {
		defer r.sendWG.Done()
		sc.run()
	}()
}

// run is the shard's sender loop: FIFO over the queue, redialing a
// dropped session at the next batch boundary.
func (sc *shardConn) run() {
	for b := range sc.queue {
		if b.stop != nil {
			// Pause sentinel: exit without teardown — the paused state
			// operation now owns this shard's session (if any).
			close(b.stop)
			return
		}
		if sc.down.Load() {
			sc.dropped.Add(1)
			b.release(sc.r)
			continue
		}
		ss := sc.sess.Load()
		if ss == nil {
			if ss = sc.redial(b.baseR, b.baseS); ss == nil {
				sc.dropped.Add(1)
				b.release(sc.r)
				continue
			}
		}
		err := ss.client.SendBatch(b.inputs)
		b.release(sc.r) // SendBatch serializes in-call; the slice is free
		if err != nil {
			// The batch is lost for this shard only: the dead session's
			// window slice is gone, and this batch was neither stored nor
			// probed here. Every match that loses has its stored tuple in
			// this shard's residue class — the other shards' slices are
			// intact and still probed by every later arrival. The next
			// batch redials with its own arrival offsets, re-aligning the
			// residue class from that point on.
			sc.r.logf("shard %d (%s): send failed, dropping session: %v", sc.index, sc.addr, err)
			sc.teardown(false)
			sc.dropped.Add(1)
		}
	}
	sc.teardown(true)
}

// teardown closes the current session, if any. Graceful teardown errors
// are kept for Close; a drop-path teardown expects the connection to be
// dead and ignores the close error.
func (sc *shardConn) teardown(graceful bool) {
	ss := sc.sess.Load()
	if ss == nil {
		return
	}
	_, err := ss.client.Close()
	if graceful && err != nil && sc.closeErr == nil {
		sc.closeErr = err
	}
	sc.sess.Store(nil)
}
