package server

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"accelstream/internal/stream"
	"accelstream/internal/wire"
	"accelstream/internal/workload"
)

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMetricsHandler scrapes the Prometheus endpoint against a live
// session and checks the process gauges and per-session counters.
func TestMetricsHandler(t *testing.T) {
	srv, addr := startServer(t, Config{})
	c, err := Dial(addr, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 2, Window: 32})
	if err != nil {
		t.Fatal(err)
	}
	var results []stream.Result
	done := make(chan struct{})
	go drainAll(c, &results, done)

	gen, err := workload.NewGenerator(workload.Spec{Seed: 11, KeyDomain: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch(gen.Take(100)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "batch to be counted and its credit returned", func() bool {
		ms := srv.Metrics()
		return len(ms) == 1 && ms[0].TuplesIn == 100 && srv.ProcessStats().CreditsOutstanding == 0
	})

	ps := srv.ProcessStats()
	if ps.SessionsActive != 1 || ps.SessionsTotal != 1 {
		t.Errorf("ProcessStats = %+v, want 1 active / 1 total", ps)
	}

	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain exposition format", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE streamd_sessions_active gauge",
		"streamd_sessions_active 1",
		"streamd_sessions_total 1",
		"streamd_credits_outstanding 0",
		"streamd_goroutines ",
		"streamd_heap_alloc_bytes ",
		`streamd_session_tuples_in_total{session="1",engine="soft-uni"} 100`,
		`streamd_session_batches_in_total{session="1",engine="soft-uni"} 1`,
		`streamd_session_open{session="1",engine="soft-uni"} 1`,
		`streamd_probe_kernel{kernel="auto",lanes="` + stream.ScanLanes() + `"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q\n--- body ---\n%s", want, body)
		}
	}

	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	// After close the session moves to history: still scraped, gauge at 0.
	// The client's Close can return before the server retires the session.
	waitFor(t, "session to be retired", func() bool { return srv.ProcessStats().SessionsActive == 0 })
	rec = httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body = rec.Body.String()
	for _, want := range []string{
		"streamd_sessions_active 0",
		`streamd_session_open{session="1",engine="soft-uni"} 0`,
		// Frame-size histogram pair: sum/count = mean results per frame.
		"# TYPE streamd_session_result_frame_tuples_sum counter",
		`streamd_session_result_frame_tuples_sum{session="1",engine="soft-uni"} `,
		`streamd_session_result_frame_tuples_count{session="1",engine="soft-uni"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("post-close metrics output missing %q\n--- body ---\n%s", want, body)
		}
	}
}

// TestClientSurfacesConnectionLost aborts the server mid-stream and
// checks the client reports the typed ErrConnectionLost sentinel from
// Err and Close (after Results closes).
func TestClientSurfacesConnectionLost(t *testing.T) {
	srv, addr := startServer(t, Config{})
	c, err := Dial(addr, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	var results []stream.Result
	done := make(chan struct{})
	go drainAll(c, &results, done)

	gen, err := workload.NewGenerator(workload.Spec{Seed: 12, KeyDomain: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch(gen.Take(64)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "server to ingest the batch", func() bool {
		ms := srv.Metrics()
		return len(ms) == 1 && ms[0].TuplesIn == 64
	})

	// An already-cancelled shutdown context aborts every live session:
	// connections die without a Closed frame, exactly a mid-stream drop.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srv.Shutdown(ctx)
	<-done

	if err := c.Err(); !errors.Is(err, ErrConnectionLost) {
		t.Errorf("Err() = %v, want errors.Is(..., ErrConnectionLost)", err)
	}
	if _, err := c.Close(); !errors.Is(err, ErrConnectionLost) {
		t.Errorf("Close() error = %v, want errors.Is(..., ErrConnectionLost)", err)
	}
	if err := c.SendBatch(gen.Take(1)); !errors.Is(err, ErrConnectionLost) {
		t.Errorf("SendBatch after drop = %v, want errors.Is(..., ErrConnectionLost)", err)
	}
}

// TestNewEngineFactory routes a session through a Config-supplied engine
// constructor instead of the built-ins.
func TestNewEngineFactory(t *testing.T) {
	cfgCh := make(chan wire.OpenConfig, 1)
	_, addr := startServer(t, Config{
		NewEngine: func(cfg wire.OpenConfig) (Engine, error) {
			cfgCh <- cfg
			return buildEngine(cfg)
		},
	})
	c, err := Dial(addr, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 2, Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	var results []stream.Result
	done := make(chan struct{})
	go drainAll(c, &results, done)
	gen, err := workload.NewGenerator(workload.Spec{Seed: 13, KeyDomain: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch(gen.Take(128)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if sawCfg := <-cfgCh; sawCfg.Engine != wire.EngineSoftUni || sawCfg.Window != 64 {
		t.Errorf("factory saw config %+v, want the client's open config", sawCfg)
	}
	if len(results) == 0 {
		t.Error("no results through factory-built engine")
	}
}
