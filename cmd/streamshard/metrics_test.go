package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"accelstream"
	"accelstream/internal/workload"
)

// TestMetricsScrapeFormat scrapes the daemon's /metrics handler on a live
// front — the front server's streamd_* families followed by the
// registry's streamshard_* families — and checks the concatenation is one
// well-formed exposition: every family has exactly one HELP line directly
// followed by its one TYPE line, no family name is declared by both
// daemons, and every sample belongs to the family declared just before it.
func TestMetricsScrapeFormat(t *testing.T) {
	backends := []string{startBackend(t), startBackend(t)}
	reg := newRouterRegistry(backends, t.Logf)
	front, err := accelstream.Serve("127.0.0.1:0", accelstream.ServerConfig{
		CheckpointDir: t.TempDir(), // the checkpoint families too
		NewEngine:     newEngine(reg, accelstream.ShardConfig{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		front.Shutdown(ctx)
	})
	c, err := accelstream.Dial(front.Addr().String(), accelstream.SessionConfig{
		Engine: accelstream.EngineSoftwareUniFlow, Cores: 1, Window: 64,
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
	gen, err := workload.NewGenerator(workload.Spec{Seed: 6, KeyDomain: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch(gen.Take(256)); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	metricsHandler(front, reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	if !strings.HasSuffix(body, "\n") {
		t.Fatalf("exposition does not end in a newline:\n%s", body)
	}
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	declared := make(map[string]bool)
	family := ""
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if help, ok := strings.CutPrefix(line, "# HELP "); ok {
			family, _, _ = strings.Cut(help, " ")
			if declared[family] {
				t.Errorf("family %s declared twice", family)
			}
			declared[family] = true
			if i+1 == len(lines) || !(lines[i+1] == "# TYPE "+family+" counter" || lines[i+1] == "# TYPE "+family+" gauge") {
				t.Errorf("HELP of %s not followed by its counter or gauge TYPE line", family)
			}
			i++ // the TYPE line
			continue
		}
		end := strings.IndexAny(line, "{ ")
		if strings.HasPrefix(line, "#") || end <= 0 {
			t.Errorf("line %d is neither a family header nor a sample: %q", i+1, line)
			continue
		}
		if name := line[:end]; name != family {
			t.Errorf("sample %q follows the %s family header", line, family)
		}
	}
	// Both daemons contributed, including labelled rows of the live session.
	for _, want := range []string{
		"streamd_checkpoints_written_total",
		`streamd_session_tuples_in_total{session="1",engine="soft-uni"} `,
		`streamshard_shard_up{session="1",shard="1",addr="` + backends[1] + `"} 1`,
		"streamshard_autoscale_enabled 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q:\n%s", want, body)
		}
	}
}
