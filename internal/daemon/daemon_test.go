package daemon

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"accelstream/internal/wire"
)

// The two lines a supervisor parses from a daemon's stderr to find its
// ephemeral ports, as the benchmark harness does.
var (
	listenLine  = regexp.MustCompile(`listening on (\S+)`)
	metricsLine = regexp.MustCompile(`metrics on http://([^/\s]+)/metrics`)
)

// syncBuffer collects log lines written from several goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitFor polls logs until re matches, returning its last group.
func waitFor(t *testing.T, logs *syncBuffer, re *regexp.Regexp) string {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if m := re.FindStringSubmatch(logs.String()); m != nil {
			return m[len(m)-1]
		}
	}
	t.Fatalf("no line matching %q in the log:\n%s", re, logs.String())
	return ""
}

func httpStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRunLifecycle serves on ephemeral ports and walks the whole shared
// sequence: the two announced ports parse with the supervisor's patterns,
// /metrics answers, /debug/pprof/ answers only under -pprof, and a
// session still open when the context is cancelled is drained rather
// than cut: it closes gracefully and gets its Closed frame, after which
// Run returns nil.
func TestRunLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		pprof int
	}{
		{"without pprof", nil, http.StatusNotFound},
		{"with pprof", []string{"-pprof"}, http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := New("testd")
			logs := new(syncBuffer)
			d.Logger.SetOutput(logs)
			ok, err := d.Parse(append([]string{"-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0", "-drain", "10s"}, tc.args...))
			if !ok || err != nil {
				t.Fatalf("Parse = %v, %v", ok, err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- d.Run(ctx, Hooks{}) }()

			addr := waitFor(t, logs, listenLine)
			metrics := waitFor(t, logs, metricsLine)
			if code := httpStatus(t, "http://"+metrics+"/metrics"); code != http.StatusOK {
				t.Errorf("/metrics answered %d", code)
			}
			if code := httpStatus(t, "http://"+metrics+"/debug/pprof/"); code != tc.pprof {
				t.Errorf("/debug/pprof/ answered %d, want %d", code, tc.pprof)
			}

			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(20 * time.Second))
			r, w := wire.NewReader(conn), wire.NewWriter(conn)
			if err := w.WriteOpen(wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 64}); err != nil {
				t.Fatal(err)
			}
			if f, err := r.ReadFrame(); err != nil || f.Type != wire.FrameOpenAck {
				t.Fatalf("handshake answered with %v, %v", f.Type, err)
			}

			cancel()
			waitFor(t, logs, regexp.MustCompile(`draining sessions`))
			if err := w.WriteClose(); err != nil {
				t.Fatal(err)
			}
			for {
				f, err := r.ReadFrame()
				if err != nil {
					t.Fatalf("draining session ended without a Closed frame: %v", err)
				}
				if f.Type == wire.FrameClosed {
					break
				}
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("Run = %v", err)
				}
			case <-time.After(15 * time.Second):
				t.Fatal("Run did not return after the drain")
			}
			if !strings.HasSuffix(logs.String(), "bye\n") {
				t.Errorf("log does not end with bye:\n%s", logs.String())
			}
		})
	}
}
