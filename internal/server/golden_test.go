package server

import (
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"accelstream/internal/admission"
	"accelstream/internal/core"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenMasks blank the exposition values that differ from run to run:
// process gauges, build and CPU identity, and checkpoint timings.
var goldenMasks = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`(?m)^(streamd_goroutines|streamd_heap_alloc_bytes|streamd_checkpoint_age_seconds|streamd_checkpoint_last_duration_seconds) .*$`), "$1 <masked>"},
	{regexp.MustCompile(`(version|lanes)="[^"]*"`), `$1="<masked>"`},
}

// TestMetricsGolden pins the streamd_* exposition byte for byte: one
// closed session whose batch matched nothing, one bad-token reject, one
// over-quota reject, quotas naming two tenants, and checkpoints on (final
// snapshots only, so exactly one is written).
func TestMetricsGolden(t *testing.T) {
	const token = "golden-token"
	srv, addr := startServer(t, Config{
		AuthToken:          token,
		CheckpointDir:      t.TempDir(),
		CheckpointInterval: -1,
		Quotas: admission.Config{Tenants: map[string]admission.Quota{
			"alpha": {MaxSessions: 2},
			"beta":  {MaxWindowBytes: 1024}, // below one window-64 session's 2048
		}},
	})
	open := func(token, tenant string) wire.OpenConfig {
		return wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 64, AuthToken: token, Tenant: tenant}
	}
	if _, err := Dial(addr, open("wrong", "")); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("wrong-token dial: %v", err)
	}
	if _, err := Dial(addr, open(token, "beta")); !errors.Is(err, ErrAdmissionDenied) {
		t.Fatalf("over-quota dial: %v", err)
	}
	c, err := Dial(addr, open(token, "alpha"))
	if err != nil {
		t.Fatal(err)
	}
	var results []stream.Result
	done := make(chan struct{})
	go drainAll(c, &results, done)
	// R-side tuples only: nothing on S to join against, so no results.
	batch := make([]core.Input, 32)
	for i := range batch {
		batch[i] = core.Input{Side: stream.SideR, Tuple: stream.Tuple{Key: uint32(i)}}
	}
	if err := c.SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	waitFor(t, "session retirement and its final snapshot", func() bool {
		ps := srv.ProcessStats()
		return ps.SessionsActive == 0 && ps.Checkpoints.Written == 1
	})

	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	got := rec.Body.String()
	for _, m := range goldenMasks {
		got = m.re.ReplaceAllString(got, m.with)
	}
	path := filepath.Join("testdata", "metrics.golden")
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
		t.Errorf("streamd exposition drifted from its golden bytes:\n--- got\n%s\n--- want\n%s", got, want)
	}
}
