package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"accelstream"
	"accelstream/internal/checkpoint"
	"accelstream/internal/leakcheck"
	"accelstream/internal/wire"
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
	id := reg.dep.Join(r)
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

// startSnapshotFront serves the daemon's engine factory over two fresh
// backends behind a front server that checkpoints into dir (none when
// dir is empty; automatic snapshots off), and mounts the daemon's
// snapshot route on a mux. The server is shut down at cleanup.
func startSnapshotFront(t *testing.T, dir string) (*accelstream.Server, *http.ServeMux) {
	t.Helper()
	cfg := accelstream.ServerConfig{
		Logf:      t.Logf,
		NewEngine: newEngine(newRouterRegistry([]string{startBackend(t), startBackend(t)}, t.Logf), accelstream.ShardConfig{}),
	}
	if dir != "" {
		cfg.CheckpointDir, cfg.CheckpointInterval = dir, -1
	}
	front, err := accelstream.Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		front.Shutdown(ctx)
	})
	mux := http.NewServeMux()
	mux.Handle("/admin/snapshot", snapshotHandler(front, t.Logf))
	return front, mux
}

// dialFront opens one front session with its results drained in the
// background; stop closes it and waits for the drain.
func dialFront(t *testing.T, front *accelstream.Server, window int) (c *accelstream.Client, stop func()) {
	t.Helper()
	c, err := accelstream.Dial(front.Addr().String(), accelstream.SessionConfig{
		Engine: accelstream.EngineSoftwareUniFlow, Cores: 2, Window: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range c.Results() {
		}
	}()
	return c, func() {
		t.Helper()
		if _, err := c.Close(); err != nil {
			t.Error(err)
		}
		<-done
	}
}

// sendAll streams inputs in batches of batchSz.
func sendAll(c *accelstream.Client, inputs []accelstream.Input, batchSz int) error {
	for i := 0; i < len(inputs); i += batchSz {
		if err := c.SendBatch(inputs[i:min(i+batchSz, len(inputs))]); err != nil {
			return err
		}
	}
	return nil
}

// waitIngested waits until the front server's session id has pushed
// tuples input tuples to its engine, so a cut after it includes them.
func waitIngested(t *testing.T, front *accelstream.Server, id uint64, tuples int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, m := range front.Metrics() {
			if m.ID == id && m.TuplesIn == uint64(tuples) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %d never ingested %d tuples: %+v", id, tuples, front.Metrics())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdminSnapshot drives POST /admin/snapshot through a front server:
// refused without a checkpoint directory, a no-op note without sessions,
// answered while a producer streams, and once the stream is in it
// persists a decodable snapshot whose manifest carries the session's
// engine shape and arrival counters.
func TestAdminSnapshot(t *testing.T) {
	leakcheck.Check(t)
	const window, tuples, batchSz = 64, 4000, 32

	_, mux := startSnapshotFront(t, "")
	if code, body := adminPost(t, mux, "/admin/snapshot", ""); code != http.StatusConflict {
		t.Fatalf("snapshot without -checkpoint-dir: %d %q", code, body)
	}
	dir := t.TempDir()
	front, mux := startSnapshotFront(t, dir)
	if code, body := adminPost(t, mux, "/admin/snapshot", ""); code != http.StatusOK || !strings.Contains(body, "no live sessions") {
		t.Fatalf("snapshot with no sessions: %d %q", code, body)
	}
	req := httptest.NewRequest(http.MethodGet, "/admin/snapshot", nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/snapshot: %d", rec.Code)
	}

	c, stop := dialFront(t, front, window)
	defer stop()
	gen, err := workload.NewGenerator(workload.Spec{Seed: 5, KeyDomain: 40})
	if err != nil {
		t.Fatal(err)
	}
	inputs := gen.Take(tuples)
	// The session serves frames once its first batch is in; then cuts
	// land between the producer's frames.
	if err := sendAll(c, inputs[:batchSz], batchSz); err != nil {
		t.Fatal(err)
	}
	waitIngested(t, front, 1, batchSz)
	sent := make(chan error, 1)
	go func() { sent <- sendAll(c, inputs[batchSz:], batchSz) }()
	for i := 0; i < 3; i++ {
		if code, body := adminPost(t, mux, "/admin/snapshot", ""); code != http.StatusOK || !strings.Contains(body, "session 1:") {
			t.Fatalf("snapshot while streaming: %d %q", code, body)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	waitIngested(t, front, 1, tuples)

	code, body := adminPost(t, mux, "/admin/snapshot", "")
	if code != http.StatusOK || !strings.Contains(body, "session 1:") {
		t.Fatalf("snapshot with a live session: %d %q", code, body)
	}
	st, err := checkpoint.NewStore(dir, 3, t.Logf)
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
}

// TestAdminSnapshotKeepsRetention: an on-demand snapshot follows the
// directory's retention (the server's default of 3), so with three older
// snapshots on disk one POST leaves the three newest, the new one among
// them.
func TestAdminSnapshotKeepsRetention(t *testing.T) {
	leakcheck.Check(t)
	const window, tuples = 64, 320
	dir := t.TempDir()
	old, err := checkpoint.NewStore(dir, 3, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	// A window no session opens with, so none of them is restored.
	for seq := uint64(1); seq <= 3; seq++ {
		meta := checkpoint.Meta{Engine: byte(wire.EngineSoftUni), Cores: 1, Window: 2 * window, ShardCount: 1, SeqR: seq, UnixNanos: int64(seq)}
		if _, err := old.Write(checkpoint.Snapshot{Meta: meta}); err != nil {
			t.Fatal(err)
		}
	}
	front, mux := startSnapshotFront(t, dir)
	c, stop := dialFront(t, front, window)
	defer stop()
	gen, err := workload.NewGenerator(workload.Spec{Seed: 7, KeyDomain: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := sendAll(c, gen.Take(tuples), 32); err != nil {
		t.Fatal(err)
	}
	waitIngested(t, front, 1, tuples)
	if code, body := adminPost(t, mux, "/admin/snapshot", ""); code != http.StatusOK {
		t.Fatalf("snapshot: %d %q", code, body)
	}
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("%d snapshots on disk after the POST, want the 3 retained: %v", len(names), names)
	}
	snap, ok, err := old.LatestValid()
	if err != nil || !ok || snap.Meta.SeqR+snap.Meta.SeqS != tuples {
		t.Fatalf("newest snapshot %+v (ok=%v, err=%v), want the POST's at %d tuples", snap.Meta, ok, err, tuples)
	}
}

// TestAdminSnapshotCountsInMetrics: every session an on-demand snapshot
// cuts is one more streamd_checkpoints_written_total.
func TestAdminSnapshotCountsInMetrics(t *testing.T) {
	leakcheck.Check(t)
	const window, tuples = 64, 320
	front, mux := startSnapshotFront(t, t.TempDir())
	written := func() string {
		t.Helper()
		rec := httptest.NewRecorder()
		front.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "streamd_checkpoints_written_total "); ok {
				return v
			}
		}
		t.Fatalf("no streamd_checkpoints_written_total in:\n%s", rec.Body.String())
		return ""
	}
	gen, err := workload.NewGenerator(workload.Spec{Seed: 8, KeyDomain: 40})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 2; id++ {
		c, stop := dialFront(t, front, window)
		defer stop()
		if err := sendAll(c, gen.Take(tuples), 32); err != nil {
			t.Fatal(err)
		}
		waitIngested(t, front, id, tuples)
	}
	if got := written(); got != "0" {
		t.Fatalf("streamd_checkpoints_written_total %s before the POST, want 0", got)
	}
	code, body := adminPost(t, mux, "/admin/snapshot", "")
	if code != http.StatusOK || strings.Count(body, "\n") != 2 {
		t.Fatalf("snapshot of two sessions: %d %q", code, body)
	}
	if got := written(); got != "2" {
		t.Errorf("streamd_checkpoints_written_total %s after snapshotting 2 sessions, want 2", got)
	}
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
	reg.dep.Join(r)
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
