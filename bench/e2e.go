package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"accelstream"
)

// plan is the timing of one end-to-end run. The same plan runs on every
// commit; only its scale differs between the measured run, the shorter
// counting and traced runs of the per-layer pass, and the smoke test.
type plan struct {
	setups int  // set-ups timed; the last one carries the run
	verify bool // check the verify prefix's exact result multiset first
	warm   time.Duration
	tput   time.Duration // closed-loop throughput phase, cut into tputSlices
	lat    time.Duration // open-loop latency phase at the workload's rate
}

const (
	tputSlices = 24
	latSlices  = 16
)

// e2eResult is everything one end-to-end run observed from outside the
// service.
type e2eResult struct {
	setupSeconds []float64

	sliceRates     []float64 // tuples/s of each throughput slice
	sliceCPU       []float64 // CPU-s per million tuples of each throughput slice
	tputTuples     uint64
	tputSeconds    float64
	blockedSeconds float64            // throughput-phase time spent inside SendBatch
	cpuSeconds     map[string]float64 // throughput-phase CPU by role: client, streamd, streamshard
	peakRSS        map[string]float64 // MiB by role, at the end of the run

	markers     markerReport
	latSeconds  float64
	pacerLagUs  []float64
	intervalUs  float64
	rttAvgUs    float64
	rttMaxUs    float64
	drainMillis float64

	sentBatches uint64
	sentTuples  uint64
	received    uint64 // results popped from Results()
	expected    uint64 // results the reference join produces for the tuples sent
	sendErrors  uint64

	// Scraped from the daemons' /metrics.
	frameFill    float64
	probeFanout  float64
	resultSkew   float64
	shardDropped float64
	shardRedials float64

	trace traceShares // zero without a tracer

	problems []string // every correctness or validity failure, in words
}

// fail records one failed operation or validity breach.
func (r *e2eResult) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// attempted counts the operations of the run: batches sent, results
// expected back, and latency markers planted.
func (r *e2eResult) attempted() uint64 {
	return r.sentBatches + r.expected + uint64(r.markers.planted)
}

// live is one dialed, draining client session and its replay cursor.
type live struct {
	c       *accelstream.Client
	in      *inputs
	cursor  int // next ring batch
	book    *markerBook
	tr      *tracer
	count   atomic.Uint64
	drained chan struct{}

	// sent is the replay log the reference join re-runs after the run:
	// plain ring batches first, then the marked latency batches.
	plainBatches int
	latStart     time.Time // when the latency phase began
	latBase      int
	latBatches   int
	sendErrors   uint64
}

func dialLive(addr string, in *inputs, markerCap int, tr *tracer) (*live, error) {
	c, err := accelstream.Dial(addr, in.w.session())
	if err != nil {
		return nil, err
	}
	s := &live{c: c, in: in, tr: tr, book: newMarkerBook(markerCap, time.Now()), drained: make(chan struct{})}
	go s.drain()
	return s, nil
}

// drain is the run's single result consumer.
func (s *live) drain() {
	defer close(s.drained)
	for r := range s.c.Results() {
		s.count.Add(1)
		if id, ok := isMarker(r.R.Key); ok {
			now := time.Now()
			s.book.match(id, now)
			if s.tr != nil {
				s.tr.stamp(s.tr.popped, id, now)
			}
		}
	}
}

// closedLoop sends ring batches back to back for d — one sender, one
// connection, saturating under the session's credit window — and returns
// the rate of each of n equal slices, the tuples sent, the time spent
// inside SendBatch and the phase's real length. onSlice, when set, is
// called between slices with the tuples the closing slice sent.
func (s *live) closedLoop(d time.Duration, n int, onSlice func(tuples uint64)) (rates []float64, tuples uint64, blocked, elapsed time.Duration) {
	slice := d / time.Duration(n)
	start := time.Now()
	sliceStart, sliceTuples := start, uint64(0)
	for len(rates) < n {
		batch := s.in.ring(s.cursor)
		t0 := time.Now()
		err := s.c.SendBatch(batch)
		t1 := time.Now()
		if err != nil {
			s.sendErrors++
			return rates, tuples, blocked, t1.Sub(start)
		}
		s.cursor++
		s.plainBatches++
		blocked += t1.Sub(t0)
		tuples += uint64(len(batch))
		sliceTuples += uint64(len(batch))
		if span := t1.Sub(sliceStart); span >= slice {
			rates = append(rates, float64(sliceTuples)/span.Seconds())
			if onSlice != nil {
				onSlice(sliceTuples)
			}
			sliceStart, sliceTuples = time.Now(), 0
		}
	}
	return rates, tuples, blocked, time.Since(start)
}

// openLoop offers the workload's fixed rate for d: batch j is due at
// start + j*interval whatever the service does, and a marker's latency
// counts from that due time, so a stall shows up in the batches queued
// behind it. It returns how late each send started, in microseconds.
func (s *live) openLoop(d time.Duration) (lagUs []float64, elapsed time.Duration) {
	w := s.in.w
	interval := time.Duration(float64(time.Second) * float64(w.batch) / float64(w.rate))
	n := int(d / interval)
	lagUs = make([]float64, 0, n)
	scratch := make([]accelstream.Input, 0, w.batch)
	s.latBase = s.cursor
	// Batch intervals go down to 200 us. time.Sleep rounds a short sleep
	// up to a millisecond when the process is otherwise idle, and the
	// kernel's default 50 us timer slack is a quarter of an interval, so
	// the pacer sleeps in nanosleep(2) on a thread whose slack is 1 ns.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	syscall.Syscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0)
	start := time.Now()
	s.latStart = start
	for j := 0; j < n; j++ {
		due := start.Add(time.Duration(j) * interval)
		if wait := time.Until(due); wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			syscall.Nanosleep(&ts, nil)
		}
		batch, probe := s.in.latencyBatch(scratch, s.latBase, j)
		t0 := time.Now()
		lagUs = append(lagUs, float64(t0.Sub(due))/1e3)
		if probe >= 0 {
			s.book.plant(probe, due)
		}
		err := s.c.SendBatch(batch)
		if err != nil {
			s.sendErrors++
			break
		}
		if probe >= 0 && s.tr != nil {
			s.tr.stamp(s.tr.due, probe, due)
			s.tr.stamp(s.tr.sendEnd, probe, time.Now())
		}
		s.cursor++
		s.latBatches++
	}
	return lagUs, time.Since(start)
}

// expectedResults replays exactly what the session sent through the
// reference join.
func (s *live) expectedResults() (uint64, error) {
	ref := newRefJoin(s.in.w.window, refStride(s.in.w), nil)
	var total uint64
	for i := 0; i < s.plainBatches; i++ {
		n, err := ref.pushAll(s.in.ring(i))
		if err != nil {
			return 0, err
		}
		total += n
	}
	scratch := make([]accelstream.Input, 0, s.in.w.batch)
	for j := 0; j < s.latBatches; j++ {
		batch, _ := s.in.latencyBatch(scratch, s.latBase, j)
		n, err := ref.pushAll(batch)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// refStride sizes the reference join's dense key range: it must cover the
// workload's key domain and every marker id of a latency phase.
func refStride(w spec) uint32 {
	return uint32(max(w.domain, 1<<16))
}

// markerCapacity is the number of markers a latency phase of length d
// plants, plus slack.
func markerCapacity(w spec, d time.Duration) int {
	return int(d.Seconds()*float64(w.rate)/float64(w.batch))/w.markEvery + 2
}

// setUp brings the topology up, dials the session and prefills 2·window
// tuples, so the windows are full and every later tuple expires one.
func setUp(in *inputs, bins *binaries, tr *tracer, markerCap int) (*cluster, *live, error) {
	c, err := startCluster(in.w, bins, tr)
	if err != nil {
		return nil, nil, err
	}
	s, err := dialLive(c.front.addr, in, markerCap, tr)
	if err != nil {
		c.stop()
		return nil, nil, err
	}
	for sent := 0; sent < 2*in.w.window; sent += in.w.batch {
		if err := s.c.SendBatch(in.ring(s.cursor)); err != nil {
			s.c.Close()
			c.stop()
			return nil, nil, fmt.Errorf("prefill: %w", err)
		}
		s.cursor++
		s.plainBatches++
	}
	return c, s, nil
}

// verifyPrefix opens a fresh session, sends the first 2.5·window tuples
// of the ring (enough for both windows to fill and expire), and compares
// the exact multiset of (R seq, S seq) pairings with the reference join.
func verifyPrefix(addr string, in *inputs) error {
	c, err := accelstream.Dial(addr, in.w.session())
	if err != nil {
		return err
	}
	var got []uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range c.Results() {
			got = append(got, r.PairID())
		}
	}()
	var want []uint64
	ref := newRefJoin(in.w.window, refStride(in.w), &want)
	batches := (5*in.w.window/2 + in.w.batch - 1) / in.w.batch
	for i := 0; i < batches; i++ {
		if err := c.SendBatch(in.ring(i)); err != nil {
			c.Close()
			<-done
			return fmt.Errorf("verify prefix: %w", err)
		}
		if _, err := ref.pushAll(in.ring(i)); err != nil {
			c.Close()
			<-done
			return err
		}
	}
	stats, err := c.Close()
	<-done
	if err != nil {
		return fmt.Errorf("verify prefix: close: %w", err)
	}
	if stats.ResultsOut != uint64(len(got)) {
		return fmt.Errorf("verify prefix: server sent %d results, client received %d", stats.ResultsOut, len(got))
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("verify prefix: result multiset differs from the reference join (%d received, %d expected)", len(got), len(want))
	}
	return nil
}

// cpuByRole reads the CPU seconds used so far by the harness ("client")
// and by each spawned daemon role.
func cpuByRole(c *cluster) (map[string]float64, error) {
	out := map[string]float64{}
	self, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	out["client"] = self
	for role, pids := range c.pids() {
		for _, pid := range pids {
			v, err := procCPU(pid)
			if err != nil {
				return nil, err
			}
			out[role] += v
		}
	}
	return out, nil
}

// runE2E performs one end-to-end run of a workload: set-up (repeated
// p.setups times), warm-up, closed-loop throughput phase, open-loop
// latency phase, close, drain and the after-run checks. An error means
// the run could not be carried out; failed operations and validity
// breaches of a run that did complete are listed in the result.
func runE2E(in *inputs, bins *binaries, tr *tracer, p plan) (*e2eResult, error) {
	w := in.w
	res := &e2eResult{}
	markerCap := markerCapacity(w, p.lat)
	if uint32(markerCap) > refStride(w) {
		return nil, fmt.Errorf("latency phase plants %d markers, more than the reference join's key range", markerCap)
	}

	var c *cluster
	var s *live
	for i := 0; i < p.setups; i++ {
		start := time.Now()
		var err error
		c, s, err = setUp(in, bins, tr, markerCap)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setupSeconds = append(res.setupSeconds, time.Since(start).Seconds())
		if i == 0 && p.verify {
			if err := verifyPrefix(c.front.addr, in); err != nil {
				res.fail("%v", err)
			}
		}
		if i < p.setups-1 {
			s.c.Close()
			<-s.drained
			c.stop()
		}
	}
	defer c.stop()

	s.closedLoop(p.warm, 1, nil)

	cpu0, err := cpuByRole(c)
	if err != nil {
		return nil, err
	}
	tr0 := tr.counters()
	var blocked, elapsed time.Duration
	var cpuErr error
	cpu := cpu0
	res.sliceRates, res.tputTuples, blocked, elapsed = s.closedLoop(p.tput, tputSlices, func(tuples uint64) {
		// Reading /proc takes the sender a fraction of a millisecond per
		// half-second slice, and falls between two slices' clocks.
		now, err := cpuByRole(c)
		if err != nil {
			cpuErr = err
			return
		}
		var used float64
		for role := range now {
			used += now[role] - cpu[role]
		}
		cpu = now
		res.sliceCPU = append(res.sliceCPU, used/(float64(tuples)/1e6))
	})
	if cpuErr != nil {
		return nil, cpuErr
	}
	res.tputSeconds, res.blockedSeconds = elapsed.Seconds(), blocked.Seconds()
	res.trace = tr.counters().sharesSince(tr0, elapsed)
	res.cpuSeconds = map[string]float64{}
	for role := range cpu {
		res.cpuSeconds[role] = cpu[role] - cpu0[role]
	}

	var latElapsed time.Duration
	res.pacerLagUs, latElapsed = s.openLoop(p.lat)
	res.latSeconds = latElapsed.Seconds()
	res.intervalUs = 1e6 * float64(w.batch) / float64(w.rate)

	// The shard rows of streamshard's exposition exist only while the
	// front session is open; everything else is exact only after the drain.
	if err := res.scrapeShards(c); err != nil {
		return nil, err
	}
	avg, maxRTT, _ := s.c.BatchRTT()
	res.rttAvgUs, res.rttMaxUs = float64(avg)/1e3, float64(maxRTT)/1e3
	closeStart := time.Now()
	stats, closeErr := s.c.Close()
	<-s.drained
	res.drainMillis = float64(time.Since(closeStart)) / 1e6
	if err := res.scrapeTotals(c); err != nil {
		return nil, err
	}
	res.peakRSS = map[string]float64{}
	for role, pids := range c.pids() {
		for _, pid := range pids {
			v, err := procPeakRSS(pid)
			if err != nil {
				return nil, err
			}
			res.peakRSS[role] += v
		}
	}

	// After-run checks, off the clock.
	res.sendErrors = s.sendErrors
	res.sentBatches = uint64(s.plainBatches + s.latBatches)
	res.sentTuples = res.sentBatches * uint64(w.batch)
	res.received = s.count.Load()
	res.markers = s.book.report()
	// The book's clock started at the dial; slices are cut on the phase's.
	for i := range res.markers.latencies {
		res.markers.latencies[i].at -= s.latStart.Sub(s.book.epoch).Seconds()
	}
	res.expected, err = s.expectedResults()
	if err != nil {
		return nil, err
	}
	if closeErr != nil {
		res.fail("close: %v", closeErr)
	}
	if res.sendErrors > 0 {
		res.fail("%d batch sends failed", res.sendErrors)
	}
	if len(res.sliceRates) < tputSlices {
		res.fail("throughput phase ended after %d of %d slices", len(res.sliceRates), tputSlices)
	}
	if stats.TuplesIn != res.sentTuples {
		res.fail("server ingested %d tuples, client sent %d", stats.TuplesIn, res.sentTuples)
	}
	if res.received != stats.ResultsOut || res.received != res.expected {
		res.fail("results: client received %d, server sent %d, reference join expects %d", res.received, stats.ResultsOut, res.expected)
	}
	if res.markers.lost > 0 || res.markers.extra > 0 {
		res.fail("markers: %d planted, %d lost, %d unexpected", res.markers.planted, res.markers.lost, res.markers.extra)
	}
	if res.shardDropped != 0 || res.shardRedials != 0 {
		res.fail("invalid run: shards dropped %v batches and redialed %v times", res.shardDropped, res.shardRedials)
	}
	// A stall of the service makes the batches queued behind it late
	// through no fault of the generator, so the tail of the lag is reported
	// (harness.pacer_lag_p99_us) and only its median invalidates a run: a
	// generator that is behind schedule most of the time offered another
	// load than the workload says.
	if lag := median(res.pacerLagUs); lag > res.intervalUs {
		res.fail("invalid run: the pacer's median lag is %.0f us, more than one batch interval (%.0f us)", lag, res.intervalUs)
	}
	return res, nil
}

// failedOps counts the failed operations behind the listed problems:
// refused sends, missing or surplus results, lost or surplus markers, and
// one for any other breach.
func (r *e2eResult) failedOps() uint64 {
	if len(r.problems) == 0 {
		return 0
	}
	diff := r.received - r.expected
	if r.expected > r.received {
		diff = r.expected - r.received
	}
	n := r.sendErrors + diff + uint64(r.markers.lost+r.markers.extra)
	return max(n, uint64(len(r.problems)))
}

// scrapeShards reads streamshard's per-shard rows while the session is
// still open. On a topology without streamshard they stay zero.
func (r *e2eResult) scrapeShards(c *cluster) error {
	if !c.routed() {
		return nil
	}
	text, err := c.front.metricsText()
	if err != nil {
		return err
	}
	samples, err := parseProm(text)
	if err != nil {
		return err
	}
	r.shardDropped = promSum(samples, "streamshard_shard_batches_dropped_total")
	r.shardRedials = promSum(samples, "streamshard_shard_redials_total")
	if per := promValues(samples, "streamshard_shard_results_total"); len(per) > 0 && mean(per) > 0 {
		r.resultSkew = slices.Max(per) / mean(per)
	}
	return nil
}

// scrapeTotals reads the session counters after the drain: the mean fill
// of the Results frames the front wrote, and how many engine-side tuples
// each tuple the front ingested turned into.
func (r *e2eResult) scrapeTotals(c *cluster) error {
	text, err := c.front.metricsText()
	if err != nil {
		return err
	}
	front, err := parseProm(text)
	if err != nil {
		return err
	}
	if frames := promSum(front, "streamd_session_result_frame_tuples_count"); frames > 0 {
		r.frameFill = promSum(front, "streamd_session_result_frame_tuples_sum") / frames
	}
	var engineTuples float64
	for _, n := range c.tier {
		text, err := n.metricsText()
		if err != nil {
			return err
		}
		samples, err := parseProm(text)
		if err != nil {
			return err
		}
		engineTuples += promSum(samples, "streamd_session_tuples_in_total")
	}
	if sent := promSum(front, "streamd_session_tuples_in_total"); sent > 0 {
		r.probeFanout = engineTuples / sent
	}
	return nil
}
