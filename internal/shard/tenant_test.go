package shard

import (
	"context"
	"net"
	"testing"
	"time"

	"accelstream/internal/server"
	"accelstream/internal/stream"
	"accelstream/internal/workload"
)

// openSession returns the server's one open session, waiting briefly for
// the handshake to land and for any session a redial or rebalance
// replaced to retire.
func openSession(t *testing.T, srv *server.Server) server.SessionMetrics {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var open []server.SessionMetrics
		for _, m := range srv.Metrics() {
			if m.Open {
				open = append(open, m)
			}
		}
		if len(open) == 1 {
			return open[0]
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d open sessions on shard server, want 1", len(open))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterTenantSurvivesRedialAndRebalance: the tenant identity given
// at Dial must ride along on every shard session's Open — the first
// dials, the redial replacing a dropped shard, and the sessions a live
// rebalance installs on new shards.
func TestRouterTenantSurvivesRedialAndRebalance(t *testing.T) {
	const tenant = "acme-prod"
	servers := make([]*server.Server, 3)
	addrs := make([]string, 3)
	for i := range addrs {
		servers[i], addrs[i] = startShardServer(t)
	}
	r, err := Dial(Config{
		Addrs:  addrs,
		Window: 96, // divides evenly across both the 3- and 4-shard layouts
		Tenant: tenant,
		Redial: RedialPolicy{Attempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range r.Results() {
		}
	}()
	for i, srv := range servers {
		if got := openSession(t, srv).Tenant; got != tenant {
			t.Fatalf("shard %d opened under tenant %q, want %q", i, got, tenant)
		}
	}

	gen, err := workload.NewGenerator(workload.Spec{Seed: 11, KeyDomain: 64})
	if err != nil {
		t.Fatal(err)
	}
	sendAll(t, r, gen.Take(200), 20)

	// Drop shard 1 and rebind a fresh server on its address: the redialed
	// session must reuse the tenant without the caller doing anything.
	abortServer(t, servers[1])
	replacement, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addrs[1])
	if err != nil {
		t.Fatalf("rebinding %s: %v", addrs[1], err)
	}
	go replacement.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		replacement.Shutdown(ctx)
	})
	sendAll(t, r, gen.Take(200), 20) // push traffic so the drop is noticed
	if got := openSession(t, replacement).Tenant; got != tenant {
		t.Fatalf("redialed session opened under tenant %q, want %q", got, tenant)
	}

	// Grow the layout by one shard: the rebalance-installed session on the
	// new endpoint must carry the tenant too.
	extra, extraAddr := startShardServer(t)
	if _, err := r.Rebalance(append(append([]string(nil), addrs...), extraAddr)); err != nil {
		t.Fatal(err)
	}
	if got := openSession(t, extra).Tenant; got != tenant {
		t.Fatalf("rebalance-installed session opened under tenant %q, want %q", got, tenant)
	}

	if _, err := r.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestRouterKernelSurvivesRebalance: a named probe kernel must reach the
// sessions a resize installs, not only the first dials — every backend
// runs the scan kernel after a 2→3 grow, where auto would resolve the
// equi-join to hash.
func TestRouterKernelSurvivesRebalance(t *testing.T) {
	servers := make([]*server.Server, 3)
	addrs := make([]string, 3)
	for i := range addrs {
		servers[i], addrs[i] = startShardServer(t)
	}
	r, err := Dial(Config{
		Addrs:       addrs[:2],
		Window:      96, // divides evenly across both the 2- and 3-shard layouts
		ProbeKernel: stream.KernelScan,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range r.Results() {
		}
	}()
	if _, err := r.Rebalance(addrs); err != nil {
		t.Fatal(err)
	}
	for i, srv := range servers {
		if got := openSession(t, srv).Kernel; got != "scan" {
			t.Errorf("shard %d runs the %q kernel after the resize, want scan", i, got)
		}
	}
	if _, err := r.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
}
