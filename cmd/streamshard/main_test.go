package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"accelstream"
)

// TestRunRefusesBadFlags: each inconsistent flag combination is refused
// with an error naming it, before any listener opens. The listen address
// has no port, so a refusal that went missing fails in Listen instead of
// starting a daemon that waits for a signal.
func TestRunRefusesBadFlags(t *testing.T) {
	shards := []string{"-shards", "127.0.0.1:1"}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"pprof without metrics", append([]string{"-pprof"}, shards...), "-pprof requires -metrics"},
		{"cert without key", append([]string{"-tls-cert", "cert.pem"}, shards...), "-tls-cert and -tls-key must be given together"},
		{"missing key pair", append([]string{"-tls-cert", "/nonexistent/cert.pem", "-tls-key", "/nonexistent/key.pem"}, shards...), "loading TLS key pair"},
		{"checkpoint interval without dir", append([]string{"-checkpoint-interval", "1s"}, shards...), "-checkpoint-interval requires -checkpoint-dir"},
		{"bad probe kernel", append([]string{"-probe-kernel", "bogus"}, shards...), `unknown probe kernel "bogus"`},
		{"missing shards", nil, "-shards is required"},
		{"empty shard entry", []string{"-shards", "127.0.0.1:1,127.0.0.1:2,"}, `-shards "127.0.0.1:1,127.0.0.1:2," has an empty entry`},
		{"empty standby entry", append([]string{"-standby-shards", "127.0.0.1:3, ,127.0.0.1:4"}, shards...), `-standby-shards "127.0.0.1:3, ,127.0.0.1:4" has an empty entry`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(append([]string{"-addr", "no-port", "-quiet"}, tc.args...))
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
	runErr := run([]string{"-version"})
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("run(-version): %v", runErr)
	}
	if want := accelstream.Version("streamshard") + "\n"; string(out) != want {
		t.Errorf("-version printed %q, want %q", out, want)
	}
}
