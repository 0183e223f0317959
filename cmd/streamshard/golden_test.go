package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"accelstream"
	"accelstream/internal/autoscale"
	"accelstream/internal/leakcheck"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden compares got against testdata/name, with every backend
// address replaced by a stable placeholder so the bytes do not depend on
// the ports the test happened to bind.
func checkGolden(t *testing.T, name, got string, backends []string) {
	t.Helper()
	for i, a := range backends {
		got = strings.ReplaceAll(got, a, fmt.Sprintf("backend-%d", i))
	}
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from its golden bytes:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// goldenOutputs renders the registry's metric families and the
// /admin/autoscale JSON.
func goldenOutputs(t *testing.T, reg *routerRegistry) (metrics, status string) {
	t.Helper()
	var b strings.Builder
	reg.writeMetrics(&b)
	mux := http.NewServeMux()
	reg.registerAdmin(mux)
	code, body := adminGet(t, mux, "/admin/autoscale")
	if code != http.StatusOK {
		t.Fatalf("GET /admin/autoscale: %d %q", code, body)
	}
	return b.String(), body
}

// dialIdle opens one traffic-free session on the registry's current shard
// set and registers it, so its per-shard rows are deterministic.
func dialIdle(t *testing.T, reg *routerRegistry, addrs []string) (*accelstream.ShardRouter, int64) {
	t.Helper()
	r, err := accelstream.DialSharded(accelstream.ShardConfig{Addrs: addrs, Window: 64, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range r.Results() {
		}
	}()
	t.Cleanup(func() { r.Close() })
	return r, reg.add(r, routerMeta{cores: 1, window: 64})
}

// TestMetricsGoldenAutoscaleOff pins the streamshard_* router and
// autoscale families and the /admin/autoscale JSON of a daemon running
// without -autoscale: two shards, one closed session and one live one.
// The bytes were captured before the autoscale loop moved into
// shard.Deployment and must not change.
func TestMetricsGoldenAutoscaleOff(t *testing.T) {
	leakcheck.Check(t)
	backends := []string{startBackend(t), startBackend(t)}
	reg := newRouterRegistry(backends, t.Logf)
	_, closed := dialIdle(t, reg, reg.dep.Addrs())
	reg.remove(closed)
	dialIdle(t, reg, reg.dep.Addrs())

	metrics, status := goldenOutputs(t, reg)
	checkGolden(t, "metrics_autoscale_off.golden", metrics, backends)
	checkGolden(t, "admin_autoscale_off.golden", status, backends)
}

// TestMetricsGoldenAutoscaleOn pins the same outputs with the autoscaler
// on, its report stubbed by a stepped clock and a scripted throttle
// counter: one throttle-triggered grow into the standby head, one idle
// shrink back, then a hold inside the cooldown, and a live session
// dialed on the resulting one-shard set.
func TestMetricsGoldenAutoscaleOn(t *testing.T) {
	leakcheck.Check(t)
	backends := []string{startBackend(t)}
	reg := newRouterRegistry(backends, t.Logf)
	now := time.Unix(1_700_000_000, 0).UTC()
	var throttled uint64
	pol := autoscale.Policy{
		TickMS:            1000,
		WindowTicks:       2,
		HighWaterTPS:      1000,
		LowWaterTPS:       100,
		ThrottleHotPerSec: 5,
		UpAfter:           1,
		DownAfter:         2,
		MinShards:         1,
		CooldownMS:        5000,
	}
	err := reg.dep.EnableAutoscale(pol, []string{"10.0.0.2:7801", "10.0.0.3:7801"},
		func() uint64 { return throttled }, autoscale.WithClock(func() time.Time { return now }))
	if err != nil {
		t.Fatal(err)
	}
	step := func(d time.Duration, wantTo int) {
		t.Helper()
		now = now.Add(d)
		if got := reg.dep.Controller().Tick(); got.To != wantTo || got.Err != "" {
			t.Fatalf("tick at %v: %+v, want %d shards", now, got, wantTo)
		}
	}
	step(0, 1)             // warming up
	throttled = 10         // 10 throttle events/s: hot
	step(time.Second, 2)   // grow into the standby head
	step(time.Second, 2)   // rates restart after a resize
	step(5*time.Second, 2) // cooldown over, cold once
	step(time.Second, 1)   // cold twice: shrink back
	step(time.Second, 1)   // rates restart, still cooling down
	dialIdle(t, reg, reg.dep.Addrs())

	metrics, status := goldenOutputs(t, reg)
	checkGolden(t, "metrics_autoscale_on.golden", metrics, backends)
	checkGolden(t, "admin_autoscale_on.golden", status, backends)
}
