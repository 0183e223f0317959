package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// ClientPool stripes independent sessions over K connections to one
// stream-join server. Each session runs its own engine with its own
// window, so the pool is a throughput construct, not a bigger logical
// join: SendBatch hands each batch to the next session round-robin,
// results are the merged union of the K independent joins, and tuples
// striped to different sessions never pair with each other. That is the
// load-generation and fan-in shape — K producers' worth of ingest over
// one pool — as opposed to the shard router, which keeps one logical
// window by broadcasting every batch.
//
// A session that dies mid-stream (ErrConnectionLost) is replaced by a
// freshly dialed one and the failed batch retried there; if the
// replacement dial fails the slot is marked down and the batch moves to
// the next live session, degrading exactly like the shard router does.
// Only the batch whose SendBatch failed is retried: batches an earlier
// SendBatch accepted — written, or queued behind a write in flight — are
// gone with the lost session, as are its undelivered results.
//
// SendBatch is single-producer; Results must be drained concurrently
// until the channel closes (after Close), exactly like Client.
type ClientPool struct {
	addr string
	open wire.OpenConfig
	opts DialOptions

	// merged carries every session's result batches; results is the
	// per-result view of it, started by the first Results call.
	merged  chan *stream.ResultBatch
	results stream.ResultsView
	drainWG sync.WaitGroup

	mu       sync.Mutex
	conns    []*Client // nil entry: slot permanently down
	next     int
	replaced uint64
	down     int
	closed   bool
	logf     func(format string, args ...any)
}

// DialPool connects conns independent sessions to one server, all with
// the same engine configuration and dial options. conns <= 0 defaults
// to 1. Dialing is all-or-nothing: a single failed session fails the
// pool (replacement only applies to sessions lost after the pool is up).
func DialPool(addr string, conns int, cfg wire.OpenConfig, opts DialOptions) (*ClientPool, error) {
	if conns <= 0 {
		conns = 1
	}
	p := &ClientPool{
		addr:   addr,
		open:   cfg,
		opts:   opts,
		merged: make(chan *stream.ResultBatch, clientBatchDepth),
		conns:  make([]*Client, conns),
	}
	for i := range p.conns {
		c, err := DialWith(addr, cfg, opts)
		if err != nil {
			for _, prev := range p.conns {
				if prev != nil {
					prev.Close()
				}
			}
			return nil, fmt.Errorf("server: pool conn %d/%d: %w", i+1, conns, err)
		}
		p.conns[i] = c
		p.spawnDrain(c)
	}
	return p, nil
}

// SetLogf routes pool lifecycle lines (session loss, replacement) to f.
func (p *ClientPool) SetLogf(f func(format string, args ...any)) {
	p.mu.Lock()
	p.logf = f
	p.mu.Unlock()
}

func (p *ClientPool) logfLocked(format string, args ...any) {
	if p.logf != nil {
		p.logf(format, args...)
	}
}

// spawnDrain merges one session's results into the pool stream; each
// (re)dialed session gets its own drain goroutine, exiting when the
// session's result channel closes.
func (p *ClientPool) spawnDrain(c *Client) {
	p.drainWG.Add(1)
	go func() {
		defer p.drainWG.Done()
		for b := range c.Batches() {
			p.merged <- b
		}
	}()
}

// Conns returns the pool width (configured connections, including any
// currently down).
func (p *ClientPool) Conns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// Replacements counts sessions that were lost and successfully replaced.
func (p *ClientPool) Replacements() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.replaced
}

// Down counts slots permanently lost: the session died and its
// replacement dial failed too.
func (p *ClientPool) Down() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.down
}

// Credits sums the live sessions' credit-window capacities.
func (p *ClientPool) Credits() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.conns {
		if c != nil {
			n += c.Credits()
		}
	}
	return n
}

// Batches returns the merged result stream of all sessions, one pooled
// batch per received Results frame. The receiver owns each batch and must
// Release it. It closes after Close has drained every session. Batches
// and Results are mutually exclusive consumers.
func (p *ClientPool) Batches() <-chan *stream.ResultBatch { return p.merged }

// Results returns the merged result stream one result at a time. The
// first call starts the goroutine that unrolls Batches; the channel
// closes after Close has drained every session.
func (p *ClientPool) Results() <-chan stream.Result { return p.results.Of(p.merged, 4096) }

// SendBatch ships one batch to the next session round-robin, blocking
// on that session's credit window. A session lost mid-send is replaced
// (or its slot marked down) and the batch retried on the next live
// session; SendBatch fails only when every slot is down or a session
// reports a non-connection error.
func (p *ClientPool) SendBatch(batch []core.Input) error {
	if len(batch) == 0 {
		return nil
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("server: pool closed")
	}
	width := len(p.conns)
	p.mu.Unlock()
	for attempt := 0; attempt < width; attempt++ {
		c, slot := p.checkout()
		if c == nil {
			break
		}
		err := c.SendBatch(batch)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrConnectionLost) {
			return err
		}
		p.replaceSlot(slot, c, err)
	}
	return fmt.Errorf("server: pool: %w: no live sessions remain", ErrConnectionLost)
}

// checkout picks the next live session round-robin.
func (p *ClientPool) checkout() (*Client, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i < len(p.conns); i++ {
		slot := p.next % len(p.conns)
		p.next++
		if c := p.conns[slot]; c != nil {
			return c, slot
		}
	}
	return nil, -1
}

// replaceSlot swaps a lost session for a freshly dialed one; on dial
// failure the slot goes permanently down. The dead client is closed to
// release its connection; its undelivered results are already lost.
func (p *ClientPool) replaceSlot(slot int, dead *Client, cause error) {
	dead.Close()
	fresh, dialErr := DialWith(p.addr, p.open, p.opts)
	var discard *Client
	p.mu.Lock()
	switch {
	case p.closed || p.conns[slot] != dead:
		// The pool moved on underneath us; don't install into a closing
		// or already-replaced slot.
		discard = fresh
	case dialErr != nil:
		p.conns[slot] = nil
		p.down++
		p.logfLocked("pool: conn %d lost (%v); replacement dial failed: %v", slot, cause, dialErr)
	default:
		p.conns[slot] = fresh
		p.replaced++
		p.logfLocked("pool: conn %d lost (%v); replaced", slot, cause)
		p.spawnDrain(fresh)
	}
	p.mu.Unlock()
	if discard != nil {
		discard.Close()
	}
}

// BatchRTT aggregates the live sessions' credit round-trip observations
// (see Client.BatchRTT): sample-weighted average, overall max, total
// samples.
func (p *ClientPool) BatchRTT() (avg, max time.Duration, samples uint64) {
	p.mu.Lock()
	conns := append([]*Client(nil), p.conns...)
	p.mu.Unlock()
	var sum time.Duration
	for _, c := range conns {
		if c == nil {
			continue
		}
		a, m, n := c.BatchRTT()
		sum += a * time.Duration(n)
		samples += n
		if m > max {
			max = m
		}
	}
	if samples > 0 {
		avg = sum / time.Duration(samples)
	}
	return avg, max, samples
}

// Close gracefully drains every session and returns their summed final
// statistics. Sessions that were lost and replaced contribute only the
// replacement's stats (the dead session's counters died with it); the
// first close error, if any, is returned alongside the partial sums.
// Results must be consumed concurrently or the drain cannot complete.
func (p *ClientPool) Close() (wire.Stats, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return wire.Stats{}, fmt.Errorf("server: pool closed")
	}
	p.closed = true
	conns := append([]*Client(nil), p.conns...)
	p.mu.Unlock()

	var total wire.Stats
	var firstErr error
	for i, c := range conns {
		if c == nil {
			continue
		}
		st, err := c.Close()
		total.TuplesIn += st.TuplesIn
		total.BatchesIn += st.BatchesIn
		total.ResultsOut += st.ResultsOut
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("server: pool conn %d: %w", i, err)
		}
	}
	p.drainWG.Wait()
	close(p.merged)
	return total, firstErr
}
