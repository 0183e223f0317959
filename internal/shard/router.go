package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"accelstream/internal/autoscale"
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
		down    int
	}
}

// shardConn is one shard endpoint: a FIFO batch queue consumed by a
// dedicated sender goroutine that owns the session (and its redials).
// modulus is fixed per generation — a rebalance replaces the whole
// shardConn set rather than mutating a live one.
type shardConn struct {
	r       *Router
	index   int
	addr    string
	modulus int // shard count of this generation

	queue chan *shardBatch
	// sess is the shard's current session, nil while it has none (the
	// shard is up exactly while it is set). Only attach and teardown
	// write it, from the sender goroutine or a paused state operation;
	// metrics and the cut's flush barrier read it concurrently.
	sess atomic.Pointer[session]

	down    atomic.Bool
	redials atomic.Uint64
	dropped atomic.Uint64
	results atomic.Uint64

	closeErr error // written by the sender, read after sendWG.Wait
}

// session is one shard session: its client and how many of the results
// the client received its drain has forwarded into the merged stream.
type session struct {
	client    *server.Client
	forwarded atomic.Uint64
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
	clients := make([]*server.Client, len(cfg.Addrs))
	for i, addr := range cfg.Addrs {
		c, err := r.dial(addr, len(cfg.Addrs), i, cfg.BaseSeqR, cfg.BaseSeqS)
		if err != nil {
			for _, prev := range clients[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("shard: dialing shard %d (%s): %w", i, addr, err)
		}
		clients[i] = c
	}
	r.shards = r.generation(cfg.Addrs, clients)
	for _, sc := range r.shards {
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
			QueueLen: len(sc.queue),
			QueueCap: cap(sc.queue),
		}
		if ss := sc.sess.Load(); ss != nil {
			sig.Up = true
			sig.CreditsOutstanding = ss.client.CreditsOutstanding()
			sig.CreditCapacity = ss.client.Credits()
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

// generation builds the shard set of a len(addrs)-shard layout, shard j
// at addrs[j], and attaches clients[j] to shard j where it is non-nil.
// Dial builds the first generation with it, a rebalance every later one
// (an aborted resize's restored layout included).
func (r *Router) generation(addrs []string, clients []*server.Client) []*shardConn {
	gen := make([]*shardConn, len(addrs))
	for j, addr := range addrs {
		gen[j] = &shardConn{r: r, index: j, addr: addr, modulus: len(addrs), queue: make(chan *shardBatch, r.cfg.QueueDepth)}
		if clients[j] != nil {
			r.attach(gen[j], clients[j])
		}
	}
	return gen
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

// dial opens the session of shard index in a modulus-shard layout at
// addr, resuming at the given arrival offsets. It is the one way every
// shard session — first dial, redial, rebalance install and restore —
// reaches its endpoint: the same Open config, TLS configuration and
// connect timeout.
func (r *Router) dial(addr string, modulus, index int, baseR, baseS uint64) (*server.Client, error) {
	return server.DialWith(addr, r.openConfig(modulus, index, baseR, baseS),
		server.DialOptions{TLS: r.cfg.TLS, Timeout: r.cfg.DialTimeout})
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// attach makes c the shard's session and starts its drain, which merges
// the session's result batches into the router stream, whole, and exits
// when the client's batch channel closes. It is the one place a shard
// gets a session: Dial, a redial and a rebalance's swap all attach.
func (r *Router) attach(sc *shardConn, c *server.Client) *session {
	ss := &session{client: c}
	sc.sess.Store(ss)
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
			ss.forwarded.Add(n)
		}
	}()
	return ss
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
			Down:           sc.down.Load(),
			Redials:        sc.redials.Load(),
			BatchesDropped: sc.dropped.Load(),
			Results:        sc.results.Load(),
		}
		if ss := sc.sess.Load(); ss != nil {
			out[i].Up = true
			out[i].CreditsOutstanding = ss.client.CreditsOutstanding()
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
