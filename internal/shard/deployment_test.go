package shard

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"accelstream/internal/autoscale"
	"accelstream/internal/core"
	"accelstream/internal/stream"
	"accelstream/internal/workload"
)

// TestDeploymentScaleLoop drives one deployment of two member routers
// through the controller tick by tick, on a stepped clock and a scripted
// throttle counter, so every decision is deterministic and nothing
// sleeps. It pins the pool discipline: grow takes the standby head,
// shrink returns the tail to the front of standby, a resize by hand prunes
// standby, a leaving member never steps the aggregate ingest backwards,
// and a grow the rebalance layer refuses counts as an error. The merged
// stream of the member that stays stays oracle-equal throughout.
func TestDeploymentScaleLoop(t *testing.T) {
	const window = 6 // divides 1, 2 and 3 shards, not 4
	_, a0 := startShardServer(t)
	_, s1 := startShardServer(t)
	_, s2 := startShardServer(t)
	const never = "127.0.0.1:1" // refused before any dial: 6 % 4 != 0

	d := NewDeployment([]string{a0}, t.Logf)
	now := time.Unix(1_700_000_000, 0)
	var throttled uint64
	err := d.EnableAutoscale(autoscale.Policy{
		TickMS:            1000,
		WindowTicks:       2,
		ThrottleHotPerSec: 5,
		UpAfter:           1,
		DownAfter:         1,
		CooldownMS:        1000,
	}, []string{s1, s2, never}, func() uint64 { return throttled }, autoscale.WithClock(func() time.Time { return now }))
	if err != nil {
		t.Fatal(err)
	}
	auto := d.Controller()

	var routers [2]*Router
	var ids [2]int64
	var results [2][]stream.Result
	var done [2]chan struct{}
	for i := range routers {
		r, err := Dial(Config{Addrs: d.Addrs(), Window: window})
		if err != nil {
			t.Fatal(err)
		}
		routers[i], ids[i], done[i] = r, d.Join(r), make(chan struct{})
		go drainRouter(r, &results[i], done[i])
	}
	gen, err := workload.NewGenerator(workload.Spec{Seed: 17, KeyDomain: 8})
	if err != nil {
		t.Fatal(err)
	}
	var inputs []core.Input // what routers[0] received
	send := func() {
		t.Helper()
		b := gen.Take(24)
		inputs = append(inputs, b...)
		for _, r := range routers {
			if r != nil {
				sendAll(t, r, b, 8)
			}
		}
	}
	// tick steps the clock one tick (plus any settle time) and checks the
	// decision's action and the resulting pool.
	tick := func(settle time.Duration, want autoscale.Action, addrs, standby []string) {
		t.Helper()
		now = now.Add(time.Second + settle)
		dec := auto.Tick()
		if dec.Action != want {
			t.Fatalf("tick at %v: %+v, want action %v", now, dec, want)
		}
		if got := d.Addrs(); !reflect.DeepEqual(got, addrs) {
			t.Fatalf("active set %v, want %v", got, addrs)
		}
		if got := d.Standby(); !reflect.DeepEqual(got, standby) {
			t.Fatalf("standby %v, want %v", got, standby)
		}
		for i, r := range routers {
			if r != nil && len(r.Shards()) != len(addrs) {
				t.Fatalf("router %d on %d shards, want %d", i, len(r.Shards()), len(addrs))
			}
		}
		send()
	}

	send()
	tick(0, autoscale.ActionHold, []string{a0}, []string{s1, s2, never}) // warming up
	throttled += 10
	tick(0, autoscale.ActionUp, []string{a0, s1}, []string{s2, never}) // grow takes the head
	tick(time.Second, autoscale.ActionHold, []string{a0, s1}, []string{s2, never})
	tick(0, autoscale.ActionDown, []string{a0}, []string{s1, s2, never}) // tail back to the front

	// A resize by hand activates s2, which leaves the pool.
	if _, err := d.Resize([]string{a0, s2}); err != nil {
		t.Fatal(err)
	}
	if got := d.Standby(); !reflect.DeepEqual(got, []string{s1, never}) {
		t.Fatalf("standby after activating %s by hand: %v", s2, got)
	}
	send()

	// A member leaving folds its ingest into the retired total.
	before := d.Sample().TuplesIn
	if r := d.Leave(ids[1]); r != routers[1] {
		t.Fatalf("Leave returned %p, want member %p", r, routers[1])
	}
	if _, err := routers[1].Close(); err != nil {
		t.Fatal(err)
	}
	<-done[1]
	routers[1] = nil
	if after := d.Sample().TuplesIn; after < before {
		t.Fatalf("aggregate TuplesIn stepped backwards on Leave: %d -> %d", before, after)
	}

	tick(time.Second, autoscale.ActionHold, []string{a0, s2}, []string{s1, never}) // rates restart
	throttled += 10
	tick(0, autoscale.ActionUp, []string{a0, s2, s1}, []string{never})
	tick(time.Second, autoscale.ActionHold, []string{a0, s2, s1}, []string{never})
	throttled += 10
	tick(0, autoscale.ActionUp, []string{a0, s2, s1}, []string{never}) // refused: 6 % 4
	if rep := auto.Report(); rep.Errors != 1 || rep.ScaleUps != 2 || rep.ScaleDowns != 1 {
		t.Fatalf("report ups=%d downs=%d errors=%d, want 2/1/1", rep.ScaleUps, rep.ScaleDowns, rep.Errors)
	}

	// Growing past an exhausted standby pool is an error, not a no-op.
	if err := NewDeployment([]string{a0}, nil).Scale(2); err == nil || !strings.Contains(err.Error(), "have 0") {
		t.Fatalf("grow with an empty standby: err = %v", err)
	}

	d.Leave(ids[0])
	if _, err := routers[0].Close(); err != nil {
		t.Fatal(err)
	}
	<-done[0]
	if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, results[0]); err != nil {
		t.Fatalf("member diverged from the oracle across the resizes: %v", err)
	}
}

// TestRebalanceKeepsDeploymentInStep pins that a direct Rebalance on a
// self-scaling router goes through its deployment of one: the active set
// follows the resize, the standby address it activated leaves the pool,
// and the next autoscale grow continues from there.
func TestRebalanceKeepsDeploymentInStep(t *testing.T) {
	const window = 6
	_, a0 := startShardServer(t)
	_, s1 := startShardServer(t)
	_, s2 := startShardServer(t)

	r, err := Dial(Config{
		Addrs:     []string{a0},
		Standby:   []string{s1, s2},
		Window:    window,
		Autoscale: &autoscale.Policy{TickMS: 3_600_000, ThrottleHotPerSec: 1}, // never ticks here
	})
	if err != nil {
		t.Fatal(err)
	}
	var results []stream.Result
	done := make(chan struct{})
	go drainRouter(r, &results, done)
	gen, err := workload.NewGenerator(workload.Spec{Seed: 29, KeyDomain: 8})
	if err != nil {
		t.Fatal(err)
	}
	inputs := gen.Take(48)
	sendAll(t, r, inputs[:24], 8)

	if _, err := r.Rebalance([]string{a0, s2}); err != nil {
		t.Fatal(err)
	}
	if got := r.dep.Addrs(); !reflect.DeepEqual(got, []string{a0, s2}) {
		t.Fatalf("deployment active set %v after Rebalance, want [%s %s]", got, a0, s2)
	}
	if got := r.dep.Standby(); !reflect.DeepEqual(got, []string{s1}) {
		t.Fatalf("deployment standby %v after Rebalance, want [%s]", got, s1)
	}
	if err := r.dep.Scale(3); err != nil {
		t.Fatal(err)
	}
	if got := r.Shards(); len(got) != 3 || got[2].Addr != s1 {
		t.Fatalf("grow after Rebalance landed on %+v, want %s appended", got, s1)
	}
	sendAll(t, r, inputs[24:], 8)

	if _, err := r.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, results); err != nil {
		t.Fatal(err)
	}
}
