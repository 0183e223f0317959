package server

import (
	"context"
	"crypto/tls"
	"errors"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/stream"
	"accelstream/internal/testcert"
	"accelstream/internal/wire"
	"accelstream/internal/workload"
)

// startTLSServer launches a server behind a TLS loopback listener and
// returns it with its dial address and the client TLS config trusting it.
func startTLSServer(t *testing.T, cfg Config) (*Server, string, *tls.Config) {
	t.Helper()
	serverTLS, clientTLS, err := testcert.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg.TLS = serverTLS
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tln := tls.NewListener(ln, serverTLS)
	go srv.Serve(tln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ln.Addr().String(), clientTLS
}

// TestTLSEndToEndExactlyOnce is the secured-path acceptance test: a TLS +
// token session must behave exactly like a plaintext one — oracle-equal
// results, clean drain — with the only difference on the wire.
func TestTLSEndToEndExactlyOnce(t *testing.T) {
	const (
		window  = 128
		tuples  = 6000
		batchSz = 64
		token   = "tls-e2e-token"
	)
	srv, addr, clientTLS := startTLSServer(t, Config{AuthToken: token})
	c, err := DialWith(addr, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 4, Window: window, AuthToken: token},
		DialOptions{TLS: clientTLS})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.Spec{Seed: 8, KeyDomain: 256})
	if err != nil {
		t.Fatal(err)
	}
	inputs := gen.Take(tuples)

	var results []stream.Result
	done := make(chan struct{})
	go drainAll(c, &results, done)

	for off := 0; off < len(inputs); off += batchSz {
		end := off + batchSz
		if end > len(inputs) {
			end = len(inputs)
		}
		if err := c.SendBatch(inputs[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	<-done

	if st.TuplesIn != tuples {
		t.Errorf("server ingested %d tuples, want %d", st.TuplesIn, tuples)
	}
	if len(results) == 0 {
		t.Fatal("no results over TLS; vacuous run")
	}
	if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, results); err != nil {
		t.Fatal(err)
	}
	if got := srv.ProcessStats().SessionsRejected; len(got) != 0 {
		t.Errorf("clean TLS run recorded rejects: %v", got)
	}
}

// TestAuthTokenRejection covers the authentication failure modes: no
// token and a wrong token must both come back as typed ErrUnauthorized,
// fail fast, land in the reject metrics under distinct reasons, and leave
// the accept loop healthy for the next (correct) client.
func TestAuthTokenRejection(t *testing.T) {
	const token = "correct-horse"
	srv, addr := startServer(t, Config{AuthToken: token})
	open := wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 16}

	start := time.Now()
	if _, err := Dial(addr, open); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("token-less dial: got %v, want ErrUnauthorized", err)
	}
	wrong, good := open, open
	wrong.AuthToken, good.AuthToken = "wrong", token
	if _, err := Dial(addr, wrong); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("wrong-token dial: got %v, want ErrUnauthorized", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("auth rejections took %v; must fail fast", elapsed)
	}

	rejected := srv.ProcessStats().SessionsRejected
	if rejected["no_token"] != 1 || rejected["bad_token"] != 1 {
		t.Errorf("reject counters = %v, want no_token=1 bad_token=1", rejected)
	}

	// The reasons are visible on /metrics for scrapers.
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`streamd_sessions_rejected_total{reason="no_token"} 1`,
		`streamd_sessions_rejected_total{reason="bad_token"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// Rejections must not wedge the accept loop: a correct client after
	// two failures gets a working session.
	c, err := Dial(addr, good)
	if err != nil {
		t.Fatalf("correct-token dial after rejections: %v", err)
	}
	if _, err := c.Close(); err != nil {
		t.Errorf("closing authorized session: %v", err)
	}
}

// TestTLSMismatch covers the two deployment mistakes: a plaintext client
// against a TLS server, and a TLS client against a plaintext server. Both
// must fail the dial promptly with a clear error — never hang — and the
// TLS server must count its half under reason="tls".
func TestTLSMismatch(t *testing.T) {
	const handshake = 2 * time.Second
	tlsSrv, tlsAddr, _ := startTLSServer(t, Config{HandshakeTimeout: handshake})
	_, plainAddr := startServer(t, Config{HandshakeTimeout: handshake})
	open := wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 16}

	start := time.Now()
	if _, err := Dial(tlsAddr, open); err == nil {
		t.Error("plaintext dial against TLS server succeeded")
	}
	_, clientTLS, err := testcert.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DialWith(plainAddr, open, DialOptions{TLS: clientTLS, Timeout: handshake}); err == nil {
		t.Error("TLS dial against plaintext server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*handshake {
		t.Errorf("mismatched dials took %v; must fail fast", elapsed)
	}

	// The server side of the plaintext-into-TLS mistake is classified as
	// a TLS reject (possibly after the handshake deadline fires).
	deadline := time.Now().Add(5 * time.Second)
	for {
		rej := tlsSrv.ProcessStats().SessionsRejected
		if rej["tls"]+rej["timeout"] >= 1 {
			if rej["tls"] < 1 {
				t.Logf("plaintext client surfaced as timeout, not tls: %v", rej)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("TLS server never counted the plaintext client: %v", rej)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDialTimeoutBlackHole: a dial against an endpoint that accepts but
// never answers must fail within the configured deadline instead of
// hanging indefinitely.
func TestDialTimeoutBlackHole(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold open, never speak
		}
	}()
	start := time.Now()
	_, err = DialWith(ln.Addr().String(),
		wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 16},
		DialOptions{Timeout: 300 * time.Millisecond})
	if err == nil {
		t.Fatal("dial against a black-holed endpoint succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("black-holed dial took %v, want ~300ms", elapsed)
	}
}
