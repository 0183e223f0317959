package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"accelstream/internal/autoscale"
	"accelstream/internal/core"
	"accelstream/internal/server"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// Router is one logical join session fanned out over N shard endpoints.
// SendBatch broadcasts every batch to all shards (the probe path); each
// shard's engine stores only its residue class (the store path), so the
// merged result stream is the disjoint union of the shards' outputs and
// matches the single-engine oracle without deduplication.
//
// SendBatch is single-producer; the output (Batches or Results, never
// both) must be drained concurrently until the channel closes (after
// Close), exactly like server.Client.
type Router struct {
	cfg    Config
	shards []*shardConn
	// merged carries every shard session's result batches as received;
	// results is the per-result view of it, started by the first Results
	// call.
	merged  chan *stream.ResultBatch
	results stream.ResultsView

	// seqR/seqS are the global per-side arrival counters: every batch is
	// enqueued with the counter values at its front, which become the
	// BaseSeq offsets if a shard session must be re-opened at that batch.
	seqR, seqS uint64 // single-producer, touched only by SendBatch

	tuplesIn   atomic.Uint64
	resultsOut atomic.Uint64

	// batchPool recycles broadcast batches once the last shard sender has
	// released them; live is SendBatch's scratch list of up shards
	// (single-producer, like seqR/seqS).
	batchPool sync.Pool
	live      []*shardConn

	sendWG  sync.WaitGroup
	drainWG sync.WaitGroup

	// sendMu serializes the broadcast path against generation changes:
	// SendBatch holds it per batch, a state operation for its whole pause
	// (see pause), and Close while retiring the current generation's queues.
	sendMu sync.Mutex

	// Rebalance observability (Prometheus-style counters).
	rebalances      atomic.Uint64 // completed rebalances
	rebalanceAborts atomic.Uint64 // aborted rebalances (old layout restored)
	rebalanceNanos  atomic.Uint64 // cumulative rebalance wall time
	rebalanceMoved  atomic.Uint64 // cumulative window tuples migrated

	// dep is the router's private deployment of one when it scales itself
	// (Config.Autoscale); set once in Dial.
	dep *Deployment

	mu      sync.Mutex
	failErr error
	closed  bool
	// retired accumulates the counters of shard generations replaced by a
	// rebalance, so totals survive the swap.
	retired struct {
		redials uint64
		dropped uint64
		results uint64
		down    int
	}
}

// shardConn is one shard endpoint: a FIFO batch queue consumed by a
// dedicated sender goroutine that owns the client (and its redials).
// modulus is fixed per generation — a rebalance replaces the whole
// shardConn set rather than mutating a live one.
type shardConn struct {
	r       *Router
	index   int
	addr    string
	modulus int // shard count of this generation

	queue  chan *shardBatch
	client *server.Client // owned by the sender goroutine after Dial
	// pub mirrors client for concurrent readers (per-shard metrics read
	// credit occupancy without entering the sender goroutine).
	pub atomic.Pointer[server.Client]

	up      atomic.Bool
	down    atomic.Bool
	redials atomic.Uint64
	dropped atomic.Uint64
	results atomic.Uint64

	// drain mirrors the current client's drain goroutine state; a state
	// cut's flush barrier reads it to learn when every result the client
	// has received was forwarded into the merged stream.
	drain atomic.Pointer[drainState]

	closeErr error // written by the sender, read after sendWG.Wait
}

// drainState is one drain goroutine's progress: results forwarded into
// the merged channel from one client session.
type drainState struct {
	client    *server.Client
	forwarded atomic.Uint64
}

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
	// sender closes it and exits WITHOUT tearing down its client, handing
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

// mergedBatchDepth is how many result batches may wait between the
// per-shard drains and the consumer: with the shards' 1024-result frames
// it buffers about the 4096 results the per-result merged channel used to.
const mergedBatchDepth = 4

// Dial connects to every shard endpoint and starts the router. All
// shards must connect for Dial to succeed; fault tolerance begins after
// the session is up.
func Dial(cfg Config) (*Router, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Build (and thereby validate) the autoscale deployment before any
	// connection is opened, so a bad policy fails the Dial outright.
	var dep *Deployment
	if cfg.Autoscale != nil {
		var err error
		if dep, err = cfg.autoscaleDeployment(); err != nil {
			return nil, err
		}
	}
	r := &Router{cfg: cfg, dep: dep, merged: make(chan *stream.ResultBatch, mergedBatchDepth)}
	// A restored deployment resumes the global arrival counters at the
	// checkpoint's: every shard session opens with the same offsets.
	r.seqR, r.seqS = cfg.BaseSeqR, cfg.BaseSeqS
	for i, addr := range cfg.Addrs {
		sc := r.newShardConn(i, addr, len(cfg.Addrs))
		c, err := server.DialWith(addr, r.openConfig(len(cfg.Addrs), i, cfg.BaseSeqR, cfg.BaseSeqS), r.dialOptions())
		if err != nil {
			for _, prev := range r.shards {
				prev.client.Close()
			}
			return nil, fmt.Errorf("shard: dialing shard %d (%s): %w", i, addr, err)
		}
		sc.client = c
		sc.pub.Store(c)
		sc.up.Store(true)
		r.shards = append(r.shards, sc)
	}
	for _, sc := range r.shards {
		r.spawnDrain(sc, sc.client)
		r.spawnSender(sc)
	}
	if dep != nil {
		dep.Join(r)
		dep.Controller().Start() // a fresh controller always starts
	}
	return r, nil
}

// autoscaleDeployment builds a self-scaling router's private deployment
// of one over Addrs+Standby. Only the router knows its window, so the
// check lives here: every shard count the policy could drive to must keep
// the merged stream oracle-equal — the global window has to divide evenly
// and preserve the effective window at each reachable size.
func (c Config) autoscaleDeployment() (*Deployment, error) {
	dep := NewDeployment(c.Addrs, c.Logf)
	if err := dep.EnableAutoscale(*c.Autoscale, c.Standby, nil); err != nil {
		return nil, err
	}
	pol := dep.Controller().Policy()
	max := dep.Limit()
	if pol.MaxShards > 0 && pol.MaxShards < max {
		max = pol.MaxShards
	}
	for n := pol.MinShards; n <= max; n++ {
		if err := c.checkResize(len(c.Addrs), n); err != nil {
			return nil, fmt.Errorf("shard: autoscale could target %d shards: %w", n, err)
		}
	}
	return dep, nil
}

// Signals snapshots the router's live autoscale inputs — the structured
// counterpart of the text /metrics exposition, so the policy never
// scrapes its own Prometheus output (autoscale sources wrap it).
func (r *Router) Signals() autoscale.Sample {
	shards := r.snapshotShards()
	s := autoscale.Sample{
		Shards:       len(shards),
		TuplesIn:     r.tuplesIn.Load(),
		ShardSignals: make([]autoscale.ShardSignal, len(shards)),
	}
	for i, sc := range shards {
		sig := autoscale.ShardSignal{
			Index:    sc.index,
			Up:       sc.up.Load(),
			QueueLen: len(sc.queue),
			QueueCap: cap(sc.queue),
		}
		if c := sc.pub.Load(); c != nil {
			sig.CreditsOutstanding = c.CreditsOutstanding()
			sig.CreditCapacity = c.Credits()
		}
		s.ShardSignals[i] = sig
	}
	// The router has no admission view of its own (Throttled stays 0; a
	// deployment's throttle hook layers that in). Occupancy here is the global
	// window's fill fraction: cumulative ingest against the 2W tuples the
	// two sliding windows retain once warm.
	if w := uint64(2 * r.cfg.Window); w > 0 {
		occ := float64(s.TuplesIn) / float64(w)
		if occ > 1 {
			occ = 1
		}
		s.WindowOccupancy = occ
	}
	return s
}

// AutoscaleReport returns the autoscale controller's state; ok is false
// when the router was dialed without Config.Autoscale.
func (r *Router) AutoscaleReport() (autoscale.Report, bool) {
	if r.dep == nil {
		return autoscale.Report{}, false
	}
	return r.dep.Controller().Report(), true
}

// newShardConn builds one endpoint of a modulus-shard generation.
func (r *Router) newShardConn(index int, addr string, modulus int) *shardConn {
	return &shardConn{
		r:       r,
		index:   index,
		addr:    addr,
		modulus: modulus,
		queue:   make(chan *shardBatch, r.cfg.QueueDepth),
	}
}

// spawnSender starts the shard's dedicated sender goroutine.
func (r *Router) spawnSender(sc *shardConn) {
	r.sendWG.Add(1)
	go func() {
		defer r.sendWG.Done()
		sc.run()
	}()
}

// openConfig is the session config of shard index in a modulus-shard
// layout: its slice of the global window and its residue class, with
// per-side arrival offsets for resume. Every shard session — first dial,
// redial, and rebalance-installed session alike — opens with it, so each
// carries the deployment's auth token, tenant identity and probe kernel,
// and a generation swap (or its abort-restore) cannot shed the tenant
// accounting or the kernel choice.
func (r *Router) openConfig(modulus, index int, baseR, baseS uint64) wire.OpenConfig {
	return wire.OpenConfig{
		Engine:      wire.EngineSoftUni,
		Cores:       r.cfg.Cores,
		Window:      r.cfg.Window / modulus,
		ShardCount:  modulus,
		ShardIndex:  index,
		BaseSeqR:    baseR,
		BaseSeqS:    baseS,
		AuthToken:   r.cfg.AuthToken,
		Tenant:      r.cfg.Tenant,
		ProbeKernel: r.cfg.ProbeKernel,
	}
}

// dialOptions is how every shard session reaches its endpoint: the same
// TLS configuration and connect timeout.
func (r *Router) dialOptions() server.DialOptions {
	return server.DialOptions{TLS: r.cfg.TLS, Timeout: r.cfg.DialTimeout}
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// spawnDrain merges one client session's result batches into the router
// stream, whole. Each (re)dialed client gets its own drain goroutine; it
// exits when the client's batch channel closes.
func (r *Router) spawnDrain(sc *shardConn, c *server.Client) {
	ds := &drainState{client: c}
	sc.drain.Store(ds)
	r.drainWG.Add(1)
	go func() {
		defer r.drainWG.Done()
		for b := range c.Batches() {
			n := uint64(len(b.Results))
			r.merged <- b
			// Counted after the hand-off, forwarded last: when the cut's
			// flush barrier sees forwarded == the client's received count,
			// every result is in the merged channel and already counted.
			sc.results.Add(n)
			r.resultsOut.Add(n)
			ds.forwarded.Add(n)
		}
	}()
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

// run is the shard's sender loop: FIFO over the queue, redialing a
// dropped session at the next batch boundary.
func (sc *shardConn) run() {
	for b := range sc.queue {
		if b.stop != nil {
			// Pause sentinel: exit without teardown — the paused state
			// operation now owns this shard's client (if any).
			close(b.stop)
			return
		}
		if sc.down.Load() {
			sc.dropped.Add(1)
			b.release(sc.r)
			continue
		}
		if sc.client == nil && !sc.redial(b.baseR, b.baseS) {
			sc.dropped.Add(1)
			b.release(sc.r)
			continue
		}
		err := sc.client.SendBatch(b.inputs)
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

// teardown closes the current client session, if any. Graceful teardown
// errors are kept for Close; a drop-path teardown expects the connection
// to be dead and ignores the close error.
func (sc *shardConn) teardown(graceful bool) {
	if sc.client == nil {
		return
	}
	_, err := sc.client.Close()
	if graceful && err != nil && sc.closeErr == nil {
		sc.closeErr = err
	}
	sc.client = nil
	sc.pub.Store(nil)
	sc.up.Store(false)
}

// redial re-opens the shard session with the given arrival offsets,
// backing off between attempts; exhausting the policy marks the shard
// permanently down.
func (sc *shardConn) redial(baseR, baseS uint64) bool {
	pol := sc.r.cfg.Redial
	if pol.Attempts < 0 {
		sc.markDown()
		return false
	}
	delay := pol.BaseDelay
	for attempt := 1; attempt <= pol.Attempts; attempt++ {
		c, err := server.DialWith(sc.addr, sc.r.openConfig(sc.modulus, sc.index, baseR, baseS), sc.r.dialOptions())
		if err == nil {
			sc.client = c
			sc.pub.Store(c)
			sc.up.Store(true)
			sc.redials.Add(1)
			sc.r.spawnDrain(sc, c)
			sc.r.logf("shard %d (%s): reconnected on attempt %d, resuming at R=%d S=%d",
				sc.index, sc.addr, attempt, baseR, baseS)
			return true
		}
		sc.r.logf("shard %d (%s): redial attempt %d/%d failed: %v",
			sc.index, sc.addr, attempt, pol.Attempts, err)
		if errors.Is(err, server.ErrUnauthorized) {
			// The shard rejected our credentials; backing off and retrying
			// with the same token cannot succeed.
			break
		}
		var hint time.Duration
		var adm *server.AdmissionError
		if errors.As(err, &adm) {
			hint = adm.RetryAfter
		}
		if attempt < pol.Attempts {
			sleep, next := nextRedialDelay(delay, hint, pol.MaxDelay)
			time.Sleep(sleep)
			delay = next
		}
	}
	sc.markDown()
	return false
}

// nextRedialDelay computes one backoff step: how long to sleep before the
// next attempt, and the policy delay the schedule resumes from afterwards.
// An admission retry-after hint stretches only this sleep (redialing
// sooner is guaranteed to be rejected again) — it must not become the base
// the exponential doubling compounds from, or one hint inflates every
// later attempt far past both the policy and the hint.
func nextRedialDelay(delay, hint, maxDelay time.Duration) (sleep, next time.Duration) {
	sleep = delay
	if hint > sleep {
		sleep = hint
	}
	next = delay * 2
	if next > maxDelay {
		next = maxDelay
	}
	return sleep, next
}

// markDown records permanent shard loss. Under FailFast the router
// refuses further batches; otherwise it degrades to the survivors.
func (sc *shardConn) markDown() {
	sc.down.Store(true)
	sc.r.logf("shard %d (%s): permanently down; its window slice is lost", sc.index, sc.addr)
	if sc.r.cfg.FailFast {
		sc.r.mu.Lock()
		if sc.r.failErr == nil {
			sc.r.failErr = fmt.Errorf("shard: shard %d (%s) permanently down", sc.index, sc.addr)
		}
		sc.r.mu.Unlock()
	}
}

// Batches returns the merged result stream: the shards' result batches,
// each forwarded whole with one channel operation. The receiver owns each
// batch and must Release it. It closes after Close has drained every
// shard. Batches and Results are mutually exclusive consumers: whichever
// is used first owns the stream for the router's lifetime.
func (r *Router) Batches() <-chan *stream.ResultBatch { return r.merged }

// Results returns the merged result stream one result at a time. The
// first call starts the goroutine that unrolls Batches; the channel
// closes after Close has drained every shard.
func (r *Router) Results() <-chan stream.Result { return r.results.Of(r.merged, 4096) }

// snapshotShards reads the current shard generation under the lock; the
// returned slice is immutable (a rebalance replaces it wholesale).
func (r *Router) snapshotShards() []*shardConn {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.shards
}

// Backlog reports queued-but-undelivered work: merged result batches not
// yet consumed plus broadcast batches not yet sent.
func (r *Router) Backlog() int {
	n := len(r.merged)
	for _, sc := range r.snapshotShards() {
		n += len(sc.queue)
	}
	return n
}

// Shards snapshots every shard connection's state.
func (r *Router) Shards() []State {
	shards := r.snapshotShards()
	out := make([]State, len(shards))
	for i, sc := range shards {
		out[i] = State{
			Index:          sc.index,
			Addr:           sc.addr,
			Up:             sc.up.Load(),
			Down:           sc.down.Load(),
			Redials:        sc.redials.Load(),
			BatchesDropped: sc.dropped.Load(),
			Results:        sc.results.Load(),
		}
		if c := sc.pub.Load(); c != nil {
			out[i].CreditsOutstanding = c.CreditsOutstanding()
		}
	}
	return out
}

// Close drains the session: queued batches are flushed to their shards,
// every shard session is closed gracefully, and the merged channel is
// closed once the last in-flight result has been delivered. The output
// must be consumed concurrently or the drain cannot complete.
func (r *Router) Close() (Stats, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return r.stats(), nil
	}
	r.closed = true
	r.mu.Unlock()
	// Stop the autoscaler before retiring the senders: closed is already
	// set, so an in-flight decision's Rebalance fails cleanly, and after
	// Stop returns no further decision can race the teardown.
	if r.dep != nil {
		r.dep.Controller().Stop()
	}
	// sendMu orders the queue close against an in-flight Rebalance, so the
	// generation being retired is the one whose senders we wait for.
	r.sendMu.Lock()
	shards := r.snapshotShards()
	for _, sc := range shards {
		close(sc.queue)
	}
	r.sendWG.Wait()
	r.sendMu.Unlock()
	r.drainWG.Wait()
	close(r.merged)
	var err error
	for _, sc := range shards {
		if sc.closeErr != nil {
			err = fmt.Errorf("shard: shard %d (%s): close: %w", sc.index, sc.addr, sc.closeErr)
			break
		}
	}
	return r.stats(), err
}

func (r *Router) stats() Stats {
	st := Stats{
		TuplesIn:   r.tuplesIn.Load(),
		ResultsOut: r.resultsOut.Load(),
	}
	r.mu.Lock()
	shards := r.shards
	st.ShardsDown = r.retired.down
	st.BatchesDropped = r.retired.dropped
	st.Redials = r.retired.redials
	r.mu.Unlock()
	for _, sc := range shards {
		if sc.down.Load() {
			st.ShardsDown++
		}
		st.BatchesDropped += sc.dropped.Load()
		st.Redials += sc.redials.Load()
	}
	return st
}
