package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"accelstream"
	"accelstream/internal/daemon"
)

// TestRunRefusesBadFlags: each inconsistent flag combination is refused
// with an error naming it, before any listener opens. The listen address
// has no port, so a refusal that went missing fails in Listen instead of
// starting a daemon that waits for a signal.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"pprof without metrics", []string{"-pprof"}, "-pprof requires -metrics"},
		{"cert without key", []string{"-tls-cert", "cert.pem"}, "-tls-cert and -tls-key must be given together"},
		{"key without cert", []string{"-tls-key", "key.pem"}, "-tls-cert and -tls-key must be given together"},
		{"missing key pair", []string{"-tls-cert", "/nonexistent/cert.pem", "-tls-key", "/nonexistent/key.pem"}, "loading TLS key pair"},
		{"checkpoint interval without dir", []string{"-checkpoint-interval", "1s"}, "-checkpoint-interval requires -checkpoint-dir"},
		{"bad probe kernel", []string{"-probe-kernel", "bogus"}, `unknown probe kernel "bogus"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(context.Background(), append([]string{"-addr", "no-port", "-quiet"}, tc.args...))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestRunVersion: -version prints the build identity and exits cleanly.
func TestRunVersion(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(context.Background(), []string{"-version"})
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("run(-version): %v", runErr)
	}
	if want := accelstream.Version("streamd") + "\n"; string(out) != want {
		t.Errorf("-version printed %q, want %q", out, want)
	}
}

// TestFlagDefaults pins the name and default of every flag against
// testdata/flags.golden.
func TestFlagDefaults(t *testing.T) {
	var got strings.Builder
	daemon.New("streamd").Flags().VisitAll(func(f *flag.Flag) { fmt.Fprintf(&got, "%s=%s\n", f.Name, f.DefValue) })
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flags drifted from testdata/flags.golden:\n--- got\n%s--- want\n%s", got.String(), want)
	}
}
