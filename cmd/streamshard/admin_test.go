package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"accelstream"
	"accelstream/internal/checkpoint"
	"accelstream/internal/leakcheck"
	"accelstream/internal/workload"
)

// startBackendServer launches one backing streamd-equivalent server.
func startBackendServer(t *testing.T) *accelstream.Server {
	t.Helper()
	srv, err := accelstream.Serve("127.0.0.1:0", accelstream.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// startBackend launches one backing server and returns its address.
func startBackend(t *testing.T) string {
	return startBackendServer(t).Addr().String()
}

// adminPost hits one admin handler through the mux and returns the
// response code and body.
func adminPost(t *testing.T, mux *http.ServeMux, path, addr string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path+"?addr="+url.QueryEscape(addr), nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// TestAdminResizeLive grows a live 2-shard deployment to 4 and shrinks
// it back to 3 through the admin endpoint, streaming between each
// resize, and checks the merged results stay oracle-equal and the
// registry metrics report the resizes.
func TestAdminResizeLive(t *testing.T) {
	leakcheck.Check(t)
	const (
		window  = 120 // divisible by every layout size used here
		perLeg  = 1200
		batchSz = 32
	)
	backends := make([]string, 4)
	for i := range backends {
		backends[i] = startBackend(t)
	}
	reg := newRouterRegistry(backends[:2], t.Logf)
	mux := http.NewServeMux()
	reg.registerAdmin(mux)

	r, err := accelstream.DialSharded(accelstream.ShardConfig{
		Addrs: reg.dep.Addrs(), Cores: 2, Window: window, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := reg.add(r, routerMeta{cores: 1, window: 8})
	gen, err := workload.NewGenerator(workload.Spec{Seed: 9, KeyDomain: 40})
	if err != nil {
		t.Fatal(err)
	}
	var results []accelstream.Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		for res := range r.Results() {
			results = append(results, res)
		}
	}()
	var inputs []accelstream.Input
	sendLeg := func() {
		t.Helper()
		leg := gen.Take(perLeg)
		inputs = append(inputs, leg...)
		for i := 0; i < len(leg); i += batchSz {
			end := i + batchSz
			if end > len(leg) {
				end = len(leg)
			}
			if err := r.SendBatch(leg[i:end]); err != nil {
				t.Fatal(err)
			}
		}
	}

	sendLeg()
	for _, step := range []struct {
		path, addr string
		want       int // shard count after
	}{
		{"/admin/add-shard", backends[2], 3},
		{"/admin/add-shard", backends[3], 4},
		{"/admin/remove-shard", backends[0], 3},
	} {
		code, body := adminPost(t, mux, step.path, step.addr)
		if code != http.StatusOK {
			t.Fatalf("%s %s: %d: %s", step.path, step.addr, code, body)
		}
		if got := len(reg.dep.Addrs()); got != step.want {
			t.Fatalf("after %s: registry has %d shards, want %d", step.path, got, step.want)
		}
		if got := len(r.Shards()); got != step.want {
			t.Fatalf("after %s: router on %d shards, want %d", step.path, got, step.want)
		}
		sendLeg()
	}

	// Rejection paths leave everything alone.
	for _, bad := range []struct {
		path, addr string
		code       int
	}{
		{"/admin/add-shard", backends[1], http.StatusConflict},    // already present
		{"/admin/remove-shard", backends[0], http.StatusNotFound}, // already removed
		{"/admin/add-shard", "", http.StatusBadRequest},           // no addr
		{"/admin/remove-shard", "nowhere:1", http.StatusNotFound}, // unknown
	} {
		code, body := adminPost(t, mux, bad.path, bad.addr)
		if code != bad.code {
			t.Errorf("%s %q: code %d, want %d (%s)", bad.path, bad.addr, code, bad.code, body)
		}
	}
	if code, _ := adminPost(t, mux, "/admin/shards", "x"); code != http.StatusMethodNotAllowed {
		t.Errorf("POST /admin/shards: code %d, want 405", code)
	}
	req := httptest.NewRequest(http.MethodGet, "/admin/shards", nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), backends[3]) {
		t.Errorf("GET /admin/shards: %d %q", rec.Code, rec.Body.String())
	}

	var b strings.Builder
	reg.writeMetrics(&b)
	metrics := b.String()
	for _, want := range []string{
		"streamshard_rebalance_total 3",
		"streamshard_rebalance_aborts_total 0",
		`streamshard_shard_redials_total{session="1",shard="0",addr=`,
		"streamshard_shard_credits_outstanding{",
		"streamshard_shards 3",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	if _, err := r.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := accelstream.VerifyExactlyOnce(window, accelstream.EquiJoinOnKey(), inputs, results); err != nil {
		t.Fatal(err)
	}

	// Retiring the router folds its counters into the registry totals.
	reg.remove(id)
	b.Reset()
	reg.writeMetrics(&b)
	if !strings.Contains(b.String(), "streamshard_rebalance_total 3") {
		t.Errorf("retired counters lost:\n%s", b.String())
	}
	if strings.Contains(b.String(), "streamshard_shard_up{") {
		t.Errorf("closed session still exports shard rows:\n%s", b.String())
	}
}

// TestAdminSnapshot drives POST /admin/snapshot: refused without a
// checkpoint store, a no-op note without sessions, and with a live
// streaming session it persists a decodable snapshot whose manifest
// carries the session's engine shape and arrival counters.
func TestAdminSnapshot(t *testing.T) {
	leakcheck.Check(t)
	const window, tuples, batchSz = 64, 800, 32
	backends := []string{startBackend(t), startBackend(t)}
	reg := newRouterRegistry(backends, t.Logf)
	mux := http.NewServeMux()
	reg.registerAdmin(mux)

	if code, body := adminPost(t, mux, "/admin/snapshot", ""); code != http.StatusConflict {
		t.Fatalf("snapshot without -checkpoint-dir: %d %q", code, body)
	}
	dir := t.TempDir()
	if err := reg.enableCheckpoints(dir); err != nil {
		t.Fatal(err)
	}
	if code, body := adminPost(t, mux, "/admin/snapshot", ""); code != http.StatusOK || !strings.Contains(body, "no live sessions") {
		t.Fatalf("snapshot with no sessions: %d %q", code, body)
	}
	req := httptest.NewRequest(http.MethodGet, "/admin/snapshot", nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/snapshot: %d", rec.Code)
	}

	r, err := accelstream.DialSharded(accelstream.ShardConfig{
		Addrs: reg.dep.Addrs(), Cores: 2, Window: window, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := reg.add(r, routerMeta{cores: 2, window: window})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range r.Results() {
		}
	}()
	gen, err := workload.NewGenerator(workload.Spec{Seed: 5, KeyDomain: 40})
	if err != nil {
		t.Fatal(err)
	}
	inputs := gen.Take(tuples)
	for i := 0; i < len(inputs); i += batchSz {
		if err := r.SendBatch(inputs[i : i+batchSz]); err != nil {
			t.Fatal(err)
		}
	}

	code, body := adminPost(t, mux, "/admin/snapshot", "")
	if code != http.StatusOK || !strings.Contains(body, "session 1:") {
		t.Fatalf("snapshot with a live session: %d %q", code, body)
	}
	st, err := checkpoint.NewStore(dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	snap, ok, err := st.LatestValid()
	if err != nil || !ok {
		t.Fatalf("no valid snapshot on disk: ok=%v err=%v", ok, err)
	}
	if snap.Meta.Window != window || snap.Meta.Cores != 2 {
		t.Fatalf("snapshot manifest %+v does not match the session", snap.Meta)
	}
	if snap.Meta.SeqR+snap.Meta.SeqS != tuples {
		t.Fatalf("snapshot at seqs (%d, %d), streamed %d tuples", snap.Meta.SeqR, snap.Meta.SeqS, tuples)
	}
	if uint64(len(snap.Tuples)) != snap.Meta.TuplesR+snap.Meta.TuplesS {
		t.Fatalf("snapshot carries %d tuples, manifest says %d",
			len(snap.Tuples), snap.Meta.TuplesR+snap.Meta.TuplesS)
	}

	if _, err := r.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	reg.remove(id)
}

// TestAdminResizeRefusedOnIndivisibleWindow checks a resize that no live
// session can satisfy is refused wholesale: the session keeps its layout
// and the registry address list is unchanged.
func TestAdminResizeRefusedOnIndivisibleWindow(t *testing.T) {
	leakcheck.Check(t)
	backends := make([]string, 3)
	for i := range backends {
		backends[i] = startBackend(t)
	}
	reg := newRouterRegistry(backends[:2], t.Logf)
	mux := http.NewServeMux()
	reg.registerAdmin(mux)
	r, err := accelstream.DialSharded(accelstream.ShardConfig{
		Addrs: reg.dep.Addrs(), Cores: 1, Window: 128, Logf: t.Logf, // 128 % 3 != 0
	})
	if err != nil {
		t.Fatal(err)
	}
	reg.add(r, routerMeta{cores: 1, window: 8})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range r.Results() {
		}
	}()
	code, body := adminPost(t, mux, "/admin/add-shard", backends[2])
	if code != http.StatusInternalServerError {
		t.Fatalf("indivisible resize returned %d: %s", code, body)
	}
	if got := len(reg.dep.Addrs()); got != 2 {
		t.Errorf("failed resize changed the registry to %d shards", got)
	}
	if got := len(r.Shards()); got != 2 {
		t.Errorf("failed resize changed the router to %d shards", got)
	}
	if _, err := r.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
}
