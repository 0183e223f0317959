package shard

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelstream/internal/autoscale"
	"accelstream/internal/core"
	"accelstream/internal/leakcheck"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
	"accelstream/internal/workload"
)

// TestNextRedialDelaySchedule pins the backoff arithmetic: a retry-after
// hint stretches only the sleep it applies to, while the exponential
// schedule keeps doubling from the policy's own delay. The regression this
// guards: feeding the hint back into the doubling base made one 300ms hint
// inflate the following sleeps to 600ms, 1200ms, ... far past both the
// policy and the hint.
func TestNextRedialDelaySchedule(t *testing.T) {
	const maxDelay = 10 * time.Second

	// No hint: pure exponential.
	sleep, next := nextRedialDelay(10*time.Millisecond, 0, maxDelay)
	if sleep != 10*time.Millisecond || next != 20*time.Millisecond {
		t.Fatalf("no hint: sleep=%v next=%v, want 10ms/20ms", sleep, next)
	}

	// Hint above the delay: sleep takes the hint, the schedule does not.
	sleep, next = nextRedialDelay(10*time.Millisecond, 300*time.Millisecond, maxDelay)
	if sleep != 300*time.Millisecond {
		t.Fatalf("hinted sleep = %v, want 300ms", sleep)
	}
	if next != 20*time.Millisecond {
		t.Fatalf("hinted next = %v, want 20ms (hint must not compound)", next)
	}
	sleep, next = nextRedialDelay(next, 300*time.Millisecond, maxDelay)
	if sleep != 300*time.Millisecond || next != 40*time.Millisecond {
		t.Fatalf("second hinted step: sleep=%v next=%v, want 300ms/40ms", sleep, next)
	}

	// Hint below the current delay is ignored.
	sleep, _ = nextRedialDelay(500*time.Millisecond, 100*time.Millisecond, maxDelay)
	if sleep != 500*time.Millisecond {
		t.Fatalf("low hint: sleep = %v, want 500ms", sleep)
	}

	// Doubling caps at MaxDelay.
	_, next = nextRedialDelay(8*time.Second, 0, maxDelay)
	if next != maxDelay {
		t.Fatalf("capped next = %v, want %v", next, maxDelay)
	}
}

// fakeShard is a wire-level stand-in for a streamd shard. It serves one
// live session normally; once flipped to rejecting mode, every new dial is
// answered with a typed v2 rate-limit reject carrying a retry-after hint,
// and the accept time is recorded so tests can measure the client's real
// inter-attempt spacing.
type fakeShard struct {
	ln         net.Listener
	rejecting  atomic.Bool
	retryAfter time.Duration
	rejects    chan time.Time

	mu   sync.Mutex
	live net.Conn
}

func startFakeShard(t *testing.T, retryAfter time.Duration) *fakeShard {
	t.Helper()
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeShard{ln: ln, retryAfter: retryAfter, rejects: make(chan time.Time, 16)}
	go fs.acceptLoop()
	t.Cleanup(func() { ln.Close() })
	return fs
}

func (fs *fakeShard) addr() string { return fs.ln.Addr().String() }

func (fs *fakeShard) acceptLoop() {
	for {
		conn, err := fs.ln.Accept()
		if err != nil {
			return
		}
		go fs.serve(conn)
	}
}

func (fs *fakeShard) serve(conn net.Conn) {
	r := wire.NewReader(conn)
	w := wire.NewWriter(conn)
	f, err := r.ReadFrame()
	if err != nil || f.Type != wire.FrameOpen {
		conn.Close()
		return
	}
	if fs.rejecting.Load() {
		fs.rejects <- time.Now()
		w.WriteOpenAck(wire.OpenAck{Reject: wire.RejectRateLimited, RetryAfter: fs.retryAfter})
		conn.Close()
		return
	}
	fs.mu.Lock()
	fs.live = conn
	fs.mu.Unlock()
	w.WriteOpenAck(wire.OpenAck{Credits: 8, Session: 1})
	for {
		f, err := r.ReadFrame()
		if err != nil {
			conn.Close()
			return
		}
		switch f.Type {
		case wire.FrameBatch:
			w.WriteCredit(1)
		case wire.FrameClose:
			w.WriteClosed(wire.Stats{})
			conn.Close()
			return
		}
	}
}

// killLive flips the server into rejecting mode and severs the live
// session's connection, so the router's next send fails and the redial
// path runs against typed rejects.
func (fs *fakeShard) killLive(t *testing.T) {
	t.Helper()
	fs.rejecting.Store(true)
	fs.mu.Lock()
	c := fs.live
	fs.mu.Unlock()
	if c == nil {
		t.Fatal("no live connection to kill")
	}
	c.Close()
}

// TestRedialHintDoesNotCompound is the wire-level regression test for the
// backoff bug: a shard answering redials with retry-after=300ms must see
// the client's attempts spaced ~300ms apart every time. The buggy code fed
// the hint into the exponential base, so the spacing was 300ms then 600ms
// (900ms total across three attempts instead of 600ms).
func TestRedialHintDoesNotCompound(t *testing.T) {
	const hint = 300 * time.Millisecond
	fs := startFakeShard(t, hint)

	r, err := Dial(Config{
		Addrs:  []string{fs.addr()},
		Window: 16,
		Redial: RedialPolicy{Attempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	var results []stream.Result
	done := make(chan struct{})
	go drainRouter(r, &results, done)

	gen, err := workload.NewGenerator(workload.Spec{Seed: 11, KeyDomain: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SendBatch(gen.Take(4)); err != nil {
		t.Fatal(err)
	}

	fs.killLive(t)

	// Keep feeding batches: the first surfaces the dead connection, the
	// next triggers the redial sequence (three rejected attempts).
	downDeadline := time.Now().Add(10 * time.Second)
	for !r.Shards()[0].Down {
		if time.Now().After(downDeadline) {
			t.Fatal("shard never went permanently down")
		}
		if err := r.SendBatch(gen.Take(4)); err != nil {
			t.Fatalf("SendBatch: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	var times []time.Time
	for i := 0; i < 3; i++ {
		select {
		case ts := <-fs.rejects:
			times = append(times, ts)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for rejected dial %d/3", i+1)
		}
	}
	elapsed := times[2].Sub(times[0])
	// Fixed behavior: two ~300ms hinted sleeps between the three attempts
	// (~600ms). The compounding bug slept 300ms then 600ms (~900ms).
	if elapsed < 550*time.Millisecond {
		t.Fatalf("attempts spaced %v apart, want >= ~600ms (hint not honored)", elapsed)
	}
	if elapsed > 820*time.Millisecond {
		t.Fatalf("attempts spaced %v apart, want ~600ms (retry-after hint compounded into backoff)", elapsed)
	}

	if _, err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-done
}

// TestAutoscaleOracleGrowShrink is the tentpole's end-to-end acceptance
// test: a router with one active shard and three standbys rides a load
// ramp up to four shards and back down to one, entirely driven by the
// autoscaler, and the merged result stream still equals the single-engine
// oracle exactly — scale actions lose nothing.
func TestAutoscaleOracleGrowShrink(t *testing.T) {
	const window = 120
	addrs := make([]string, 4)
	for i := range addrs {
		_, addrs[i] = startShardServer(t)
	}

	r, err := Dial(Config{
		Addrs:   addrs[:1],
		Standby: addrs[1:],
		Window:  window,
		Cores:   1,
		Autoscale: &autoscale.Policy{
			TickMS:       20,
			WindowTicks:  3,
			HighWaterTPS: 5000,
			LowWaterTPS:  500,
			UpAfter:      2,
			DownAfter:    4,
			MinShards:    1,
			MaxShards:    4,
			CooldownMS:   100,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var results []stream.Result
	done := make(chan struct{})
	go drainRouter(r, &results, done)

	gen, err := workload.NewGenerator(workload.Spec{Seed: 23, KeyDomain: 48})
	if err != nil {
		t.Fatal(err)
	}
	var inputs []core.Input

	// Hot phase: ~40k tuples/sec aggregate keeps every reachable shard
	// count above the high water (40k/4 = 10k > 5000 per shard), so the
	// controller climbs to the pool limit and parks there.
	hot, err := workload.NewPacer(40000)
	if err != nil {
		t.Fatal(err)
	}
	hotDeadline := time.Now().Add(15 * time.Second)
	for len(r.Shards()) < 4 {
		if time.Now().After(hotDeadline) {
			t.Fatalf("never reached 4 shards; report: %+v", reportOrDie(t, r))
		}
		b := gen.Take(48)
		inputs = append(inputs, b...)
		if err := r.SendBatch(b); err != nil {
			t.Fatalf("hot SendBatch: %v", err)
		}
		hot.WaitBatch(48)
	}

	// Cold phase: ~400 tuples/sec sits below the low water at every shard
	// count (400/1 = 400 < 500 per shard), so the controller walks the
	// deployment back down to MinShards.
	cold, err := workload.NewPacer(400)
	if err != nil {
		t.Fatal(err)
	}
	coldDeadline := time.Now().Add(30 * time.Second)
	for len(r.Shards()) > 1 {
		if time.Now().After(coldDeadline) {
			t.Fatalf("never shrank to 1 shard; report: %+v", reportOrDie(t, r))
		}
		b := gen.Take(12)
		inputs = append(inputs, b...)
		if err := r.SendBatch(b); err != nil {
			t.Fatalf("cold SendBatch: %v", err)
		}
		cold.WaitBatch(12)
	}

	rep := reportOrDie(t, r)

	st, err := r.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-done

	if st.ShardsDown != 0 || st.BatchesDropped != 0 {
		t.Fatalf("lossy scale path: ShardsDown=%d BatchesDropped=%d", st.ShardsDown, st.BatchesDropped)
	}
	if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, results); err != nil {
		t.Fatalf("autoscaled run diverged from oracle: %v", err)
	}
	if rep.ScaleUps < 3 {
		t.Fatalf("ScaleUps = %d, want >= 3 (1 -> 4)", rep.ScaleUps)
	}
	if rep.ScaleDowns < 3 {
		t.Fatalf("ScaleDowns = %d, want >= 3 (4 -> 1)", rep.ScaleDowns)
	}
	// Hysteresis: actions are spaced at least one cooldown apart.
	cooldown := 100 * time.Millisecond
	for i := 1; i < len(rep.Recent); i++ {
		gap := rep.Recent[i].At.Sub(rep.Recent[i-1].At)
		if gap < cooldown {
			t.Fatalf("actions %d and %d only %v apart, want >= %v", i-1, i, gap, cooldown)
		}
	}
}

func reportOrDie(t *testing.T, r *Router) autoscale.Report {
	t.Helper()
	rep, ok := r.AutoscaleReport()
	if !ok {
		t.Fatal("AutoscaleReport: no controller attached")
	}
	return rep
}

// TestAutoscaleDialValidation pins that Dial fails fast when some
// reachable shard count would violate the resize constraints, instead of
// failing at scale time.
func TestAutoscaleDialValidation(t *testing.T) {
	_, a0 := startShardServer(t)

	pol := &autoscale.Policy{HighWaterTPS: 1000}

	// Window 100 divides 1 and 2 but not 3: the pool makes 3 reachable.
	_, err := Dial(Config{
		Addrs:     []string{a0},
		Standby:   []string{"127.0.0.1:1", "127.0.0.1:2"},
		Window:    100,
		Autoscale: pol,
	})
	if err == nil {
		t.Fatal("Dial accepted a pool with an indivisible window")
	}

	// Window 120 over 4 cores keeps the effective window at 1-3 shards, but
	// at 4 the 30-tuple slice rounds up to 32 per shard: the error names
	// the reachable count that breaks, not the starting one.
	_, err = Dial(Config{
		Addrs:     []string{a0},
		Standby:   []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"},
		Window:    120,
		Cores:     4,
		Autoscale: pol,
	})
	if err == nil || !strings.Contains(err.Error(), "could target 4 shards") {
		t.Fatalf("effective-window error = %v, want it to name 4 shards", err)
	}

	// MinShards larger than the whole address pool can never be satisfied.
	_, err = Dial(Config{
		Addrs:     []string{a0},
		Standby:   []string{"127.0.0.1:1"},
		Window:    16,
		Autoscale: &autoscale.Policy{HighWaterTPS: 1000, MinShards: 3},
	})
	if err == nil {
		t.Fatal("Dial accepted MinShards beyond the address pool")
	}

	// An invalid policy (no hot trigger) is rejected outright.
	_, err = Dial(Config{
		Addrs:     []string{a0},
		Window:    16,
		Autoscale: &autoscale.Policy{},
	})
	if err == nil {
		t.Fatal("Dial accepted a policy with no hot trigger")
	}
}

// TestRouterSignals sanity-checks the Signals snapshot the autoscaler
// samples: shard count, per-shard liveness, and the cumulative tuple
// counter all reflect the live deployment.
func TestRouterSignals(t *testing.T) {
	_, a0 := startShardServer(t)
	_, a1 := startShardServer(t)

	r, err := Dial(Config{Addrs: []string{a0, a1}, Window: 32})
	if err != nil {
		t.Fatal(err)
	}
	var results []stream.Result
	done := make(chan struct{})
	go drainRouter(r, &results, done)

	gen, err := workload.NewGenerator(workload.Spec{Seed: 5, KeyDomain: 32})
	if err != nil {
		t.Fatal(err)
	}
	sendAll(t, r, gen.Take(128), 32)

	s := r.Signals()
	if s.Shards != 2 || len(s.ShardSignals) != 2 {
		t.Fatalf("Signals shards = %d (%d signals), want 2", s.Shards, len(s.ShardSignals))
	}
	if s.TuplesIn != 128 {
		t.Fatalf("Signals TuplesIn = %d, want 128", s.TuplesIn)
	}
	for _, sh := range s.ShardSignals {
		if !sh.Up {
			t.Fatalf("shard %d not up in signals", sh.Index)
		}
		if sh.CreditCapacity <= 0 {
			t.Fatalf("shard %d credit capacity = %d, want > 0", sh.Index, sh.CreditCapacity)
		}
		if sh.QueueCap <= 0 {
			t.Fatalf("shard %d queue cap = %d, want > 0", sh.Index, sh.QueueCap)
		}
	}
	if s.WindowOccupancy < 0 || s.WindowOccupancy > 1 {
		t.Fatalf("occupancy %v out of [0,1]", s.WindowOccupancy)
	}

	if _, err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-done
}
