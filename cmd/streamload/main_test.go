package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"accelstream"
	"accelstream/internal/leakcheck"
	"accelstream/internal/testcert"
)

// TestRunRefusesBadFlags: each inconsistent flag combination is refused
// with an error naming it, before anything is dialed. The address has no
// port, so a refusal that went missing fails in the dial instead.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"key without cert", []string{"-tls-key", "key.pem"}, "-tls-cert and -tls-key must be given together"},
		{"cert without key", []string{"-tls-cert", "cert.pem"}, "-tls-cert and -tls-key must be given together"},
		{"verify with a pool", []string{"-conns", "2", "-verify"}, "-verify requires -conns 1"},
		{"empty batch", []string{"-batch", "0"}, "batch and tuples must be positive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(append([]string{"-addr", "no-port"}, tc.args...), &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestRunVerifiesAgainstOracle runs the loadgen end to end against an
// in-process server on loopback with the oracle check on: the run must
// finish without error, every emitted result must arrive, and the
// received multiset must match the oracle.
func TestRunVerifiesAgainstOracle(t *testing.T) {
	leakcheck.Check(t)
	srv, err := accelstream.Serve("127.0.0.1:0", accelstream.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	var out bytes.Buffer
	err = run([]string{
		"-addr", srv.Addr().String(),
		"-engine", "uni", "-cores", "2", "-window", "256",
		"-tuples", "4000", "-batch", "128", "-domain", "64", "-verify",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"sent 4000 tuples in 128-tuple batches",
		"verify: exactly-once pairing holds against the oracle",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "results: 0 received") {
		t.Errorf("no results joined, so the oracle check proved nothing:\n%s", out.String())
	}
}

// TestRunTLSFlagsImplyTLS: each TLS client flag given alone dials over
// TLS. The server's certificate is signed by a throwaway CA, so a TLS dial
// fails certificate verification; a plaintext dial would fail the
// handshake instead.
func TestRunTLSFlagsImplyTLS(t *testing.T) {
	leakcheck.Check(t)
	serverTLS, _, err := testcert.New()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := accelstream.Serve("127.0.0.1:0", accelstream.ServerConfig{TLS: serverTLS})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"server name", []string{"-tls-servername", "localhost"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			args := append([]string{"-addr", srv.Addr().String(), "-tuples", "64", "-batch", "64", "-dial-timeout", "5s"}, tc.args...)
			err := run(args, &out)
			if err == nil || !strings.Contains(err.Error(), "certificate") {
				t.Fatalf("run(%q) = %v, want a certificate verification error", tc.args, err)
			}
		})
	}
}
