package shard

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/server"
	"accelstream/internal/wire"
)

// A resize, a coordinated snapshot and a restore are the same two steps
// over a paused generation: cut every shard at one punctuation, then
// re-slice and install. Which shard stores a tuple is a pure function of
// its arrival index (Reslice), so the pooled cut of N shards is
// exactly the global window and installs onto any M that keeps the
// effective window. This file holds the one pause, the one cut fan-out and
// the one install fan-out the three operations share.

// pause stops the broadcast at a punctuation boundary: it takes sendMu,
// refuses a closed router, and sends a stop sentinel through every queue of
// the current generation. A sentinel flushes the batches queued ahead of it
// (FIFO) and parks its sender without tearing down the session, so once
// pause returns no batch is in flight and the caller owns every shard's
// client. The caller ends the pause with resume, on this generation or on
// the one it swapped in.
func (r *Router) pause() ([]*shardConn, error) {
	r.sendMu.Lock()
	r.mu.Lock()
	closed, shards := r.closed, r.shards
	r.mu.Unlock()
	if closed {
		r.sendMu.Unlock()
		return nil, fmt.Errorf("shard: router closed")
	}
	stops := make([]chan struct{}, len(shards))
	for i, sc := range shards {
		stops[i] = make(chan struct{})
		sc.queue <- &shardBatch{stop: stops[i]}
	}
	for _, st := range stops {
		<-st
	}
	return shards, nil
}

// resume starts gen's senders and releases sendMu, ending a pause.
func (r *Router) resume(gen []*shardConn) {
	for _, sc := range gen {
		r.spawnSender(sc)
	}
	r.sendMu.Unlock()
}

// cut takes one state cut on every shard of a paused generation at once:
// take is (*server.Client).Checkpoint for a snapshot and
// (*server.Client).ExportState for a hand-off. Every shard counts the same
// global arrivals, so a cut that does not stand at the router's counters
// means a residue class desynchronized, and fails. Before a shard's cut
// counts, every result its session delivered ahead of the cut is forwarded
// into the merged stream: the flush barrier that makes ResultsEmitted exact
// at the cut. A shard without a session yields neither slice nor error;
// what a missing or failed slice costs is the caller's policy.
func (r *Router) cut(shards []*shardConn, take func(*server.Client) ([]core.Input, wire.RebalanceInfo, error)) ([][]core.Input, []error) {
	slices := make([][]core.Input, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, sc := range shards {
		ss := sc.sess.Load()
		if ss == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tuples, info, err := take(ss.client)
			if err == nil && (info.SeqR != r.seqR || info.SeqS != r.seqS) {
				err = fmt.Errorf("cut at seqs (%d, %d), router at (%d, %d)", info.SeqR, info.SeqS, r.seqR, r.seqS)
			}
			if err != nil {
				errs[i] = fmt.Errorf("shard %d (%s): %w", sc.index, sc.addr, err)
				return
			}
			ss.flush()
			slices[i] = tuples
		}()
	}
	wg.Wait()
	return slices, errs
}

// flush waits until the session's drain has forwarded every result the
// session has received into the merged stream.
func (ss *session) flush() {
	for target := ss.client.ResultsReceived(); ss.forwarded.Load() < target; {
		runtime.Gosched()
	}
}

// install imports slices[j] into clients[j] on every shard at once. A nil
// client, a session that could not be opened, is skipped.
func install(clients []*server.Client, slices [][]core.Input) []error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for j, c := range clients {
		if c == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[j] = c.ImportState(slices[j])
		}()
	}
	wg.Wait()
	return errs
}

// open dials a fresh layout over addrs at the paused arrival counters and
// installs slices[j] on session j. A shard that could not be dialed or
// installed comes back nil, its session closed, with the error.
func (r *Router) open(addrs []string, slices [][]core.Input) ([]*server.Client, []error) {
	clients := make([]*server.Client, len(addrs))
	errs := make([]error, len(addrs))
	for j, addr := range addrs {
		c, err := r.dial(addr, len(addrs), j, r.seqR, r.seqS)
		if err != nil {
			errs[j] = fmt.Errorf("dialing shard %d (%s): %w", j, addr, err)
			continue
		}
		clients[j] = c
	}
	for j, err := range install(clients, slices) {
		if err != nil {
			clients[j].Close()
			clients[j] = nil
			errs[j] = fmt.Errorf("importing into shard %d (%s): %w", j, addrs[j], err)
		}
	}
	return clients, errs
}

// requireUp refuses a snapshot or restore over a generation with a shard
// down: a snapshot missing a residue class would restore a window with
// holes, and a restore has no session to install that class into.
func requireUp(shards []*shardConn, op string) error {
	for _, sc := range shards {
		if sc.sess.Load() == nil || sc.down.Load() {
			return fmt.Errorf("shard: %s needs every shard up; shard %d (%s) is down", op, sc.index, sc.addr)
		}
	}
	return nil
}

// checkResize is the resize rule: the global window must divide evenly
// across to shards, and the layout must keep the effective window it has at
// from shards. The engine rounds each core's sub-window up, so a per-shard
// slice that does not divide by the core count stores slightly more than
// window/shards, and the merged results would silently stop being
// oracle-equal across such a resize.
func (c *Config) checkResize(from, to int) error {
	if to < 1 {
		return fmt.Errorf("a layout needs at least one shard")
	}
	if c.Window%to != 0 {
		return fmt.Errorf("Window %d does not divide evenly across %d shards", c.Window, to)
	}
	if o, n := EffectiveWindow(c.Window, from, c.Cores), EffectiveWindow(c.Window, to, c.Cores); o != n {
		return fmt.Errorf("resizing %d -> %d shards would change the effective window %d -> %d (per-shard slice must divide by %d cores)",
			from, to, o, n, c.Cores)
	}
	return nil
}

// Rebalance re-slices the deployment onto a new shard set while the
// logical session keeps running. Broadcasting pauses at a punctuation
// boundary; every live shard session is terminally drained and hands over
// its residue-class slice (the session's state cut, persisting nothing);
// the pooled slices, together exactly the global window, are re-sliced by
// the new modulus and installed on freshly dialed sessions that resume at
// the paused arrival counters; the router swaps generations and resumes.
// Every probe still sees the full global window, so the merged result
// stream stays oracle-equal across the transition.
//
// A shard whose session is already lost has no slice to hand over and
// degrades exactly like a crashed shard (Report.SlicesLost). Any other
// failure aborts: the new sessions are closed and the old layout is
// restored from the exported slices, held in memory until the install
// confirms, so a failed attempt loses nothing (a shard that cannot be
// restored degrades like a crashed one). The router remains usable either
// way. Rebalance may be called concurrently with SendBatch — the batch
// producer simply blocks for the duration of the pause.
//
// On a self-scaling router (Config.Autoscale) Rebalance goes through the
// router's deployment: a successful resize becomes its active set and
// takes the addresses it activates out of the standby pool, so the
// autoscaler keeps sizing from the layout the router actually runs.
func (r *Router) Rebalance(newAddrs []string) (Report, error) {
	if r.dep != nil {
		r.dep.mu.Lock()
		defer r.dep.mu.Unlock()
		rep, err := r.rebalance(newAddrs)
		if err == nil {
			r.dep.activateLocked(newAddrs)
		}
		return rep, err
	}
	return r.rebalance(newAddrs)
}

func (r *Router) rebalance(newAddrs []string) (Report, error) {
	old, err := r.pause()
	if err != nil {
		return Report{}, err
	}
	gen := old
	defer func() { r.resume(gen) }()
	if err := r.cfg.checkResize(len(old), len(newAddrs)); err != nil {
		return Report{}, fmt.Errorf("shard: rebalance: %w", err)
	}
	start := time.Now()
	rep := Report{OldShards: len(old), NewShards: len(newAddrs), SeqR: r.seqR, SeqS: r.seqS}

	slices, errs := r.cut(old, (*server.Client).ExportState)
	oldAddrs := make([]string, len(old))
	var cause error
	for i, sc := range old {
		oldAddrs[i] = sc.addr
		if sc.sess.Load() == nil || errs[i] != nil {
			rep.SlicesLost++
		}
		if errs[i] != nil && cause == nil {
			cause = fmt.Errorf("shard: rebalance export: %w", errs[i])
		}
	}
	addrs := newAddrs
	var clients []*server.Client
	if cause == nil {
		var pooled []core.Input
		for _, s := range slices {
			pooled = append(pooled, s...)
		}
		rep.TuplesMigrated = uint64(len(pooled))
		clients, errs = r.open(newAddrs, Reslice(pooled, len(newAddrs)))
		for _, err := range errs {
			if err != nil && cause == nil {
				cause = fmt.Errorf("shard: rebalance install: %w", err)
			}
		}
	}
	if cause != nil {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
		r.logf("rebalance: aborting, restoring %d-shard layout: %v", len(old), cause)
		addrs, rep.Aborted, rep.TuplesMigrated = oldAddrs, true, 0
		clients, errs = r.open(oldAddrs, slices)
		for i, err := range errs {
			if err != nil {
				r.logf("rebalance: restore: %v", err)
				if slices[i] != nil {
					rep.SlicesLost++
				}
				continue
			}
			rep.TuplesMigrated += uint64(len(slices[i]))
		}
		r.rebalanceAborts.Add(1)
	} else {
		r.rebalances.Add(1)
	}
	rep.Duration = time.Since(start)
	r.rebalanceNanos.Add(uint64(rep.Duration.Nanoseconds()))
	r.rebalanceMoved.Add(rep.TuplesMigrated)

	// Swap generations: fresh shardConns under the new modulus (or the
	// restored old one), counters of the retired generation folded into
	// the cumulative totals.
	gen = r.generation(addrs, clients)
	r.mu.Lock()
	for _, sc := range old {
		r.retired.redials += sc.redials.Load()
		r.retired.dropped += sc.dropped.Load()
		if sc.down.Load() {
			r.retired.down++
		}
	}
	r.shards = gen
	r.mu.Unlock()
	if cause == nil {
		r.logf("rebalance: %d→%d shards complete, %d window tuples migrated at seqs (%d, %d) in %v",
			rep.OldShards, rep.NewShards, rep.TuplesMigrated, rep.SeqR, rep.SeqS, rep.Duration)
	}
	return rep, cause
}

// RebalanceMetrics reports cumulative rebalance counters: completed and
// aborted runs, window tuples migrated, and total wall time spent
// rebalancing.
func (r *Router) RebalanceMetrics() (completed, aborted, migrated uint64, total time.Duration) {
	return r.rebalances.Load(), r.rebalanceAborts.Load(), r.rebalanceMoved.Load(),
		time.Duration(r.rebalanceNanos.Load())
}

// SnapshotState cuts a coordinated all-shard snapshot of the deployment's
// global window at a punctuation boundary, implementing the server
// Snapshotter capability so a whole shard cluster checkpoints behind one
// streamshard session. Under the same pause a rebalance takes, every shard
// session cuts a live checkpoint concurrently, the flush barriers guarantee
// each shard's pre-snapshot results have been forwarded into the merged
// stream, and the union of the residue-class slices — in ascending
// per-side sequence order, all of R then all of S — is returned with the
// global arrival counters. The router resumes streaming on return.
//
// Every shard must be up: a snapshot missing a residue class would
// restore a window with holes. The output must be drained concurrently
// (exactly as with SendBatch) or the flush barriers cannot complete.
func (r *Router) SnapshotState() ([]core.Input, uint64, uint64, error) {
	shards, err := r.pause()
	if err != nil {
		return nil, 0, 0, err
	}
	defer r.resume(shards)
	if err := requireUp(shards, "snapshot"); err != nil {
		return nil, 0, 0, err
	}
	slices, errs := r.cut(shards, (*server.Client).Checkpoint)
	var pooled []core.Input
	for i, err := range errs {
		if err != nil {
			return nil, 0, 0, fmt.Errorf("shard: coordinated snapshot: %w", err)
		}
		pooled = append(pooled, slices[i]...)
	}
	return Reslice(pooled, 1)[0], r.seqR, r.seqS, nil
}

// ResultsEmitted returns how many results have been forwarded into the
// merged stream — the Snapshotter flush target: at the boundary
// SnapshotState establishes, the count is exact for the input so far.
func (r *Router) ResultsEmitted() uint64 { return r.resultsOut.Load() }

// ImportState installs a previously snapshotted global window into the
// freshly dialed deployment, before any batch has been broadcast: the
// tuples are re-sliced by residue class under the current modulus and
// installed on every shard session concurrently. The router must have
// been dialed with Config.BaseSeqR/BaseSeqS set to the snapshot's arrival
// counters, so each shard session verifies the slice against the same
// base offsets. This is the restore path a streamshard daemon runs when
// its server hands it a recovered checkpoint at session open.
func (r *Router) ImportState(tuples []core.Input) error {
	shards, err := r.pause()
	if err != nil {
		return err
	}
	defer r.resume(shards)
	if r.tuplesIn.Load() != 0 {
		return fmt.Errorf("shard: ImportState must precede the first batch")
	}
	if err := requireUp(shards, "restore"); err != nil {
		return err
	}
	clients := make([]*server.Client, len(shards))
	for i, sc := range shards {
		clients[i] = sc.sess.Load().client
	}
	for i, err := range install(clients, Reslice(tuples, len(shards))) {
		if err != nil {
			return fmt.Errorf("shard: restoring shard %d (%s): %w", i, shards[i].addr, err)
		}
	}
	r.logf("restored %d window tuples across %d shards at seqs (%d, %d)",
		len(tuples), len(shards), r.seqR, r.seqS)
	return nil
}
