package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"accelstream"
	"accelstream/internal/testcert"
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
	if want := accelstream.Version("streamshard") + "\n"; string(out) != want {
		t.Errorf("-version printed %q, want %q", out, want)
	}
}

// TestFlagDefaults pins the name and default of every flag, the shared
// daemon flags and the router's own, against testdata/flags.golden.
func TestFlagDefaults(t *testing.T) {
	d, _ := newFlags()
	var got strings.Builder
	d.Flags().VisitAll(func(f *flag.Flag) { fmt.Fprintf(&got, "%s=%s\n", f.Name, f.DefValue) })
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flags drifted from testdata/flags.golden:\n--- got\n%s--- want\n%s", got.String(), want)
	}
}

// TestShardTLSFlagsImplyTLS: each shard TLS flag given alone makes the
// router dial its shards over TLS. The shard's certificate is signed by a
// throwaway CA, so a TLS dial fails certificate verification; a plaintext
// dial would fail the handshake instead.
func TestShardTLSFlagsImplyTLS(t *testing.T) {
	serverTLS, _, err := testcert.New()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := accelstream.Serve("127.0.0.1:0", accelstream.ServerConfig{TLS: serverTLS})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"server name", []string{"-shard-tls-servername", "localhost"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, f := newFlags()
			if err := d.Flags().Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			tmpl, err := f.shardTemplate(t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			factory := newEngine(newRouterRegistry([]string{srv.Addr().String()}, t.Logf), tmpl)
			_, err = factory(accelstream.SessionConfig{Engine: accelstream.EngineSoftwareUniFlow, Cores: 1, Window: 64})
			if err == nil || !strings.Contains(err.Error(), "certificate") {
				t.Fatalf("%q: opening a session = %v, want a certificate verification error", tc.args, err)
			}
		})
	}
}
