package shard

import (
	"context"
	"crypto/tls"
	"errors"
	"net"
	"testing"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/server"
	"accelstream/internal/stream"
	"accelstream/internal/testcert"
)

// startTLSShardServer launches one secured streamd-equivalent server on a
// loopback listener using the supplied TLS config and auth token.
func startTLSShardServer(t *testing.T, serverTLS *tls.Config, token string) (*server.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(t, server.Config{TLS: serverTLS, AuthToken: token}, tls.NewListener(ln, serverTLS))
}

// TestRouterTLSRedialResumes is the secured variant of the redial test:
// all three shards require TLS + token, shard 1's server is replaced
// mid-stream, and the redial must come back over TLS with the same token
// and credentials — the merged stream stays within the oracle, missing
// only matches stored in the dropped shard's residue class.
func TestRouterTLSRedialResumes(t *testing.T) {
	const (
		window  = 90
		perSide = 45
		batchSz = 10
		dropped = 1
		token   = "shard-fleet-token"
	)
	serverTLS, clientTLS, err := testcert.New()
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*server.Server, 3)
	addrs := make([]string, 3)
	for i := range addrs {
		servers[i], addrs[i] = startTLSShardServer(t, serverTLS, token)
	}
	r, err := Dial(Config{
		Addrs:     addrs,
		Window:    window,
		TLS:       clientTLS,
		AuthToken: token,
		Redial:    RedialPolicy{Attempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var results []stream.Result
	done := make(chan struct{})
	go drainRouter(r, &results, done)

	phase1, phase2 := twoPhaseWorkload(perSide)
	sendAll(t, r, phase1, batchSz)

	// Replace the dropped shard with a fresh secured server on the same
	// address and certificate; the redial must authenticate against it.
	abortServer(t, servers[dropped])
	replacement, err := server.New(server.Config{TLS: serverTLS, AuthToken: token})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addrs[dropped])
	if err != nil {
		t.Fatalf("rebinding %s: %v", addrs[dropped], err)
	}
	go replacement.Serve(tls.NewListener(ln, serverTLS))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		replacement.Shutdown(ctx)
	})

	sendAll(t, r, phase2, batchSz)
	if _, err := r.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	all := append(append([]core.Input(nil), phase1...), phase2...)
	oracle, residue := oracleWithStoredResidue(t, window, all, 3)
	oracleCounts := pairCounts(oracle)
	got := pairCounts(results)

	for id, n := range got {
		if n > oracleCounts[id] {
			t.Errorf("pair %d seen %d times, oracle has %d", id, n, oracleCounts[id])
		}
	}
	residueOf := make(map[uint64]int, len(oracle))
	for i, res := range oracle {
		residueOf[res.PairID()] = residue[i]
	}
	for id, n := range oracleCounts {
		if got[id] < n && residueOf[id] != dropped {
			t.Errorf("missing pair %d stored on shard %d, only shard %d may lose matches",
				id, residueOf[id], dropped)
		}
	}

	s := r.Shards()[dropped]
	if s.Redials == 0 {
		t.Errorf("dropped shard reports no redials over TLS: %+v", s)
	}
	if s.Down {
		t.Errorf("dropped shard did not recover over TLS: %+v", s)
	}
	if s.Results == 0 {
		t.Errorf("redialed shard produced no results: %+v", s)
	}
}

// TestRouterTLSBadToken: a router presenting the wrong token to a secured
// shard set must fail Dial with the typed unauthorized error rather than
// retrying into a credential wall.
func TestRouterTLSBadToken(t *testing.T) {
	serverTLS, clientTLS, err := testcert.New()
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 2)
	for i := range addrs {
		_, addrs[i] = startTLSShardServer(t, serverTLS, "right-token")
	}
	start := time.Now()
	_, err = Dial(Config{
		Addrs:     addrs,
		Window:    64,
		TLS:       clientTLS,
		AuthToken: "wrong-token",
	})
	if !errors.Is(err, server.ErrUnauthorized) {
		t.Fatalf("bad-token shard dial: got %v, want ErrUnauthorized", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("bad-token shard dial took %v; must fail fast", elapsed)
	}
}
