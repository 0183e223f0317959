package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"accelstream"
	"accelstream/internal/autoscale"
	"accelstream/internal/leakcheck"
	"accelstream/internal/workload"
)

func adminGet(t *testing.T, mux *http.ServeMux, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// TestDaemonAutoscaleLoop drives the registry-level autoscaler end to end:
// a live session's ingest ramp activates the standby shard, a quiet phase
// retires it back to the pool, the admin endpoint reports the loop, the
// metrics expose its counters — and the merged results stay oracle-equal
// through both autoscale-triggered rebalances.
func TestDaemonAutoscaleLoop(t *testing.T) {
	leakcheck.Check(t)
	const window = 64
	backends := []string{startBackend(t), startBackend(t)}
	reg := newRouterRegistry(backends[:1], t.Logf)
	mux := http.NewServeMux()
	reg.registerAdmin(mux)

	pol := autoscale.Policy{
		TickMS:       20,
		WindowTicks:  2,
		HighWaterTPS: 2000,
		LowWaterTPS:  200,
		UpAfter:      2,
		DownAfter:    4,
		MinShards:    1,
		MaxShards:    2,
		CooldownMS:   100,
	}
	if err := reg.dep.EnableAutoscale(pol, backends[1:], func() uint64 { return 0 }); err != nil {
		t.Fatal(err)
	}
	if err := reg.dep.Controller().Start(); err != nil {
		t.Fatal(err)
	}
	defer reg.dep.Controller().Stop()

	r, err := accelstream.DialSharded(accelstream.ShardConfig{
		Addrs: reg.dep.Addrs(), Window: window, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := reg.dep.Join(r)
	var results []accelstream.Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		for res := range r.Results() {
			results = append(results, res)
		}
	}()
	gen, err := workload.NewGenerator(workload.Spec{Seed: 3, KeyDomain: 40})
	if err != nil {
		t.Fatal(err)
	}
	var inputs []accelstream.Input

	// Hot phase: ~10k tuples/sec holds every reachable shard count above
	// the high water, so the controller activates the standby.
	hot, err := workload.NewPacer(10000)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for len(reg.dep.Addrs()) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("standby shard never activated under load")
		}
		b := gen.Take(32)
		inputs = append(inputs, b...)
		if err := r.SendBatch(b); err != nil {
			t.Fatalf("hot SendBatch: %v", err)
		}
		hot.WaitBatch(32)
	}

	code, body := adminGet(t, mux, "/admin/autoscale")
	if code != http.StatusOK {
		t.Fatalf("GET /admin/autoscale: %d %q", code, body)
	}
	var status struct {
		Enabled bool     `json:"enabled"`
		Shards  []string `json:"shards"`
		Standby []string `json:"standby"`
		Report  *struct {
			ScaleUps uint64 `json:"scale_ups"`
		} `json:"report"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("GET /admin/autoscale returned invalid JSON: %v\n%s", err, body)
	}
	if !status.Enabled || len(status.Shards) != 2 || len(status.Standby) != 0 {
		t.Fatalf("autoscale status after grow: %+v", status)
	}
	if status.Report == nil || status.Report.ScaleUps < 1 {
		t.Fatalf("report missing scale-ups: %s", body)
	}

	// Cold phase: a trickle sits below the low water until the standby is
	// retired back into the pool.
	cold, err := workload.NewPacer(50)
	if err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(30 * time.Second)
	for len(reg.dep.Addrs()) > 1 {
		if time.Now().After(deadline) {
			t.Fatal("deployment never shrank back to 1 shard")
		}
		b := gen.Take(2)
		inputs = append(inputs, b...)
		if err := r.SendBatch(b); err != nil {
			t.Fatalf("cold SendBatch: %v", err)
		}
		cold.WaitBatch(2)
	}
	reg.mu.Lock()
	standbyLen := len(reg.dep.Standby())
	reg.mu.Unlock()
	if standbyLen != 1 {
		t.Fatalf("retired shard not returned to standby: pool has %d entries", standbyLen)
	}

	var b strings.Builder
	reg.writeMetrics(&b)
	metrics := b.String()
	for _, want := range []string{
		"streamshard_autoscale_enabled 1",
		"streamshard_standby_shards 1",
		`streamshard_autoscale_triggers_total{trigger="ingest"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	rep := reg.dep.Controller().Report()
	if rep.ScaleUps < 1 || rep.ScaleDowns < 1 {
		t.Fatalf("report ups=%d downs=%d, want both >= 1", rep.ScaleUps, rep.ScaleDowns)
	}

	reg.dep.Controller().Stop()
	if _, err := r.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	reg.remove(id)
	if err := accelstream.VerifyExactlyOnce(window, accelstream.EquiJoinOnKey(), inputs, results); err != nil {
		t.Fatalf("autoscaled daemon run diverged from oracle: %v", err)
	}
}

// TestAdminAutoscaleDisabled pins the endpoint's shape when the daemon
// runs without -autoscale: enabled=false, no policy, no report.
func TestAdminAutoscaleDisabled(t *testing.T) {
	leakcheck.Check(t)
	reg := newRouterRegistry([]string{"127.0.0.1:1"}, t.Logf)
	mux := http.NewServeMux()
	reg.registerAdmin(mux)
	code, body := adminGet(t, mux, "/admin/autoscale")
	if code != http.StatusOK {
		t.Fatalf("GET /admin/autoscale: %d", code)
	}
	var status struct {
		Enabled bool             `json:"enabled"`
		Policy  *json.RawMessage `json:"policy"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if status.Enabled || status.Policy != nil {
		t.Fatalf("disabled autoscale reports %+v", status)
	}
	if code, _ := adminPost(t, mux, "/admin/autoscale", ""); code != http.StatusMethodNotAllowed {
		t.Errorf("POST /admin/autoscale: code %d, want 405", code)
	}
	var b strings.Builder
	reg.writeMetrics(&b)
	if !strings.Contains(b.String(), "streamshard_autoscale_enabled 0") {
		t.Errorf("metrics missing disabled autoscale gauge:\n%s", b.String())
	}
}
