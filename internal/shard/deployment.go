package shard

import (
	"fmt"
	"strings"
	"sync"

	"accelstream/internal/autoscale"
)

// Deployment is one elastic shard set: the active addresses its member
// routers run on, the standby pool the autoscaler grows into, and the
// members themselves. It is the autoscaler's Source and Actuator. A
// streamshard daemon shares one across all its sessions; a router dialed
// with Config.Autoscale is a deployment of one.
//
// One lock orders every resize against members joining and leaving, so a
// member never leaves (and is closed) under a rebalance in flight.
type Deployment struct {
	logf func(format string, args ...any)

	mu      sync.Mutex
	addrs   []string
	standby []string // growth pool, in activation order
	members []Member // in join order
	nextID  int64
	// retiredTuples is the ingest of members that already left, so the
	// aggregate TuplesIn never steps backwards (a backwards delta would
	// read as a zero-rate tick).
	retiredTuples uint64
	throttled     func() uint64         // admission throttle count; may be nil
	auto          *autoscale.Controller // nil until EnableAutoscale
}

// Member is one router of a deployment and the id Join gave it.
type Member struct {
	ID     int64
	Router *Router
}

// NewDeployment starts an empty deployment on the active address set.
func NewDeployment(addrs []string, logf func(format string, args ...any)) *Deployment {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Deployment{logf: logf, addrs: append([]string(nil), addrs...)}
}

// EnableAutoscale builds the controller (not yet started) over the
// deployment, with standby as its growth pool and throttled (may be nil)
// as the admission-pressure signal.
func (d *Deployment) EnableAutoscale(pol autoscale.Policy, standby []string, throttled func() uint64, opts ...autoscale.Option) error {
	auto, err := autoscale.New(pol, d, d, append([]autoscale.Option{autoscale.WithLogf(d.logf)}, opts...)...)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if pool := len(d.addrs) + len(standby); auto.Policy().MinShards > pool {
		return fmt.Errorf("shard: autoscale min_shards %d exceeds the %d-address pool (active plus standby)",
			auto.Policy().MinShards, pool)
	}
	d.standby = append([]string(nil), standby...)
	d.throttled, d.auto = throttled, auto
	return nil
}

// Controller returns the autoscale controller, nil until EnableAutoscale.
func (d *Deployment) Controller() *autoscale.Controller {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.auto
}

// Addrs returns the active shard set, the one a new member dials.
func (d *Deployment) Addrs() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.addrs...)
}

// Standby returns the growth pool in activation order.
func (d *Deployment) Standby() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.standby...)
}

// Join adds a member router and returns its id.
func (d *Deployment) Join(r *Router) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextID++
	d.members = append(d.members, Member{d.nextID, r})
	return d.nextID
}

// Leave removes a member, folding its ingest into the retired total, and
// returns it (nil if id is not a member). It waits out a resize in flight,
// so the caller may close the router once Leave returns.
func (d *Deployment) Leave(id int64) *Router {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, m := range d.members {
		if m.ID == id {
			d.retiredTuples += m.Router.tuplesIn.Load()
			d.members = append(d.members[:i], d.members[i+1:]...)
			return m.Router
		}
	}
	return nil
}

// Members returns the current members in join order.
func (d *Deployment) Members() []Member {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Member(nil), d.members...)
}

// Resize rebalances every member onto newAddrs. The active set changes
// only when every member made the transition; a member that failed has
// restored its old layout itself, and the summary says which is where.
func (d *Deployment) Resize(newAddrs []string) (summary []string, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.resizeLocked(newAddrs)
}

func (d *Deployment) resizeLocked(newAddrs []string) (summary []string, err error) {
	failed := 0
	for _, m := range d.members {
		rep, rerr := m.Router.rebalance(newAddrs)
		if rerr != nil {
			failed++
			summary = append(summary, fmt.Sprintf("session %d: FAILED: %v (old layout kept, %d slices lost)",
				m.ID, rerr, rep.SlicesLost))
			continue
		}
		summary = append(summary, fmt.Sprintf("session %d: %d -> %d shards, %d window tuples migrated in %v",
			m.ID, rep.OldShards, rep.NewShards, rep.TuplesMigrated, rep.Duration))
	}
	if failed > 0 {
		return summary, fmt.Errorf("%d of %d sessions failed to rebalance; shard set unchanged (%s)",
			failed, len(d.members), strings.Join(d.addrs, ","))
	}
	d.activateLocked(newAddrs)
	return append(summary, fmt.Sprintf("shard set now: %s", strings.Join(d.addrs, ","))), nil
}

// activateLocked makes newAddrs the active set. An address activated by
// hand leaves the standby pool, so it is never dialed under two residue
// classes.
func (d *Deployment) activateLocked(newAddrs []string) {
	d.addrs = append([]string(nil), newAddrs...)
	active := make(map[string]bool, len(newAddrs))
	for _, a := range newAddrs {
		active[a] = true
	}
	var kept []string
	for _, a := range d.standby {
		if !active[a] {
			kept = append(kept, a)
		}
	}
	d.standby = kept
}

// Sample sums every member's Signals per shard index, with the cumulative
// ingest of live and retired members, the worst member's window
// occupancy, and the throttle hook's count.
func (d *Deployment) Sample() autoscale.Sample {
	d.mu.Lock()
	s := autoscale.Sample{
		Shards:       len(d.addrs),
		TuplesIn:     d.retiredTuples,
		ShardSignals: make([]autoscale.ShardSignal, len(d.addrs)),
	}
	for i := range s.ShardSignals {
		s.ShardSignals[i].Index = i
	}
	for _, m := range d.members {
		rs := m.Router.Signals()
		s.TuplesIn += rs.TuplesIn
		s.WindowOccupancy = max(s.WindowOccupancy, rs.WindowOccupancy)
		for _, sh := range rs.ShardSignals {
			if sh.Index < 0 || sh.Index >= s.Shards {
				continue
			}
			agg := &s.ShardSignals[sh.Index]
			agg.Up = agg.Up || sh.Up
			agg.CreditsOutstanding += sh.CreditsOutstanding
			agg.CreditCapacity += sh.CreditCapacity
			agg.QueueLen += sh.QueueLen
			agg.QueueCap += sh.QueueCap
		}
	}
	throttled := d.throttled
	d.mu.Unlock()
	if throttled != nil {
		s.Throttled = throttled()
	}
	return s
}

// Scale lands an autoscale decision: growth activates the head of the
// standby pool, shrink returns the tail of the active set to the front of
// the pool (so the next grow reuses the most recently drained endpoints).
func (d *Deployment) Scale(target int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := len(d.addrs)
	if target == cur {
		return nil
	}
	if target < 1 {
		return fmt.Errorf("autoscale target %d below 1 shard", target)
	}
	newAddrs := append([]string(nil), d.addrs[:min(target, cur)]...)
	retiring := append([]string(nil), d.addrs[min(target, cur):]...)
	if need := target - cur; need > len(d.standby) {
		return fmt.Errorf("autoscale target %d needs %d standby shards, have %d", target, need, len(d.standby))
	} else if need > 0 {
		newAddrs = append(newAddrs, d.standby[:need]...) // resizeLocked prunes them from standby
	}
	summary, err := d.resizeLocked(newAddrs)
	for _, line := range summary {
		d.logf("autoscale: %s", line)
	}
	if err != nil {
		return err
	}
	d.standby = append(retiring, d.standby...)
	return nil
}

// Limit is the whole address pool: active plus standby.
func (d *Deployment) Limit() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.addrs) + len(d.standby)
}
