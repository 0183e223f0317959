package shard

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"accelstream/internal/admission"
	"accelstream/internal/server"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
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

// shardSetting is one per-deployment value a router must carry into every
// shard session's Open: set puts it on the router's config, backend is
// the shard servers' config (a token row makes them require the token),
// and observe reads it back off a shard server's open session.
type shardSetting struct {
	name    string
	set     func(*Config)
	backend server.Config
	observe func(server.SessionMetrics) string
	want    string
}

const shardToken = "shard-s3cret"

var shardSettings = []shardSetting{
	{"tenant", func(c *Config) { c.Tenant = "acme-prod" }, server.Config{},
		func(m server.SessionMetrics) string { return m.Tenant }, "acme-prod"},
	// A server that requires the token admits no session without it, and
	// accounts a token-only session under the token's derived tenant.
	{"auth token", func(c *Config) { c.AuthToken = shardToken }, server.Config{AuthToken: shardToken},
		func(m server.SessionMetrics) string { return m.Tenant }, admission.DeriveTenant("", shardToken)},
	// Auto would resolve the equi-join to hash.
	{"probe kernel", func(c *Config) { c.ProbeKernel = stream.KernelScan }, server.Config{},
		func(m server.SessionMetrics) string { return m.Kernel }, "scan"},
}

// startBackend starts a shard server with the setting's server config.
func (st shardSetting) startBackend(t *testing.T) (*server.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(t, st.backend, ln)
}

// check fails the test unless srv's one open session carries the setting.
func (st shardSetting) check(t *testing.T, srv *server.Server, which string) {
	t.Helper()
	if got := st.observe(openSession(t, srv)); got != st.want {
		t.Errorf("%s: %s session carries %q, want %q", st.name, which, got, st.want)
	}
}

// TestRouterTenantSurvivesRedialAndRebalance: each per-deployment setting
// given at Dial — tenant, auth token, probe kernel — must ride along on
// every shard session's Open: the first dials, the redial replacing a
// dropped shard, and the sessions a live rebalance installs on new
// shards.
func TestRouterTenantSurvivesRedialAndRebalance(t *testing.T) {
	for _, st := range shardSettings {
		t.Run(st.name, func(t *testing.T) {
			servers := make([]*server.Server, 3)
			addrs := make([]string, 3)
			for i := range addrs {
				servers[i], addrs[i] = st.startBackend(t)
			}
			cfg := Config{
				Addrs:  addrs,
				Window: 96, // divides evenly across both the 3- and 4-shard layouts
				Redial: RedialPolicy{Attempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
				Logf:   t.Logf,
			}
			st.set(&cfg)
			r, err := Dial(cfg)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for range r.Results() {
				}
			}()
			for _, srv := range servers {
				st.check(t, srv, "first-dial")
			}

			gen, err := workload.NewGenerator(workload.Spec{Seed: 11, KeyDomain: 64})
			if err != nil {
				t.Fatal(err)
			}
			sendAll(t, r, gen.Take(200), 20)

			// Drop shard 1 and rebind a fresh server on its address: the
			// redialed session must reuse the setting without the caller
			// doing anything.
			abortServer(t, servers[1])
			ln, err := net.Listen("tcp", addrs[1])
			if err != nil {
				t.Fatalf("rebinding %s: %v", addrs[1], err)
			}
			replacement, _ := serveOn(t, st.backend, ln)
			sendAll(t, r, gen.Take(200), 20) // push traffic so the drop is noticed
			st.check(t, replacement, "redialed")

			// Grow the layout by one shard: the rebalance-installed session
			// on the new endpoint must carry the setting too.
			extra, extraAddr := st.startBackend(t)
			if _, err := r.Rebalance(append(append([]string(nil), addrs...), extraAddr)); err != nil {
				t.Fatal(err)
			}
			st.check(t, extra, "rebalance-installed")

			if _, err := r.Close(); err != nil {
				t.Fatal(err)
			}
			<-done
		})
	}
}

// TestRouterKernelSurvivesRebalance: each per-deployment setting must
// reach the sessions a resize installs, not only the first dials — every
// backend's session after a 2→3 grow carries it, the two that replaced a
// first-dial session and the one on the new endpoint alike.
func TestRouterKernelSurvivesRebalance(t *testing.T) {
	for _, st := range shardSettings {
		t.Run(st.name, func(t *testing.T) {
			servers := make([]*server.Server, 3)
			addrs := make([]string, 3)
			for i := range addrs {
				servers[i], addrs[i] = st.startBackend(t)
			}
			cfg := Config{
				Addrs:  addrs[:2],
				Window: 96, // divides evenly across both the 2- and 3-shard layouts
				Logf:   t.Logf,
			}
			st.set(&cfg)
			r, err := Dial(cfg)
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
				st.check(t, srv, fmt.Sprintf("shard %d's post-resize", i))
			}
			if _, err := r.Close(); err != nil {
				t.Fatal(err)
			}
			<-done
		})
	}
}

// TestRouterOpenFrameGolden pins the Open frame a router writes for a
// shard session that carries an auth token, a tenant and a probe kernel,
// byte for byte, CRC included. The bytes were captured while those three
// settings still reached the router's dials as dial options beside the
// Open config; they now ride only the Open config, and the frame must not
// have moved.
func TestRouterOpenFrameGolden(t *testing.T) {
	const want = "012d0201010102010203014005010207016308038080400908686f6f74686572320a01020b09616373652e70726f647d350e40"
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- nil
			return
		}
		defer conn.Close()
		// The client writes its Open and then waits for the ack, so what
		// the reader consumed is exactly the one frame.
		var raw bytes.Buffer
		if _, err := wire.NewReader(io.TeeReader(conn, &raw)).ReadFrame(); err != nil {
			got <- nil
			return
		}
		got <- raw.Bytes()
	}()
	_, err = Dial(Config{
		Addrs:       []string{ln.Addr().String(), "127.0.0.1:1"},
		Cores:       2,
		Window:      128,
		BaseSeqR:    99,
		BaseSeqS:    1 << 20,
		AuthToken:   "hoother2",
		Tenant:      "acse.prod",
		ProbeKernel: stream.KernelScan,
		DialTimeout: 5 * time.Second,
	})
	if err == nil {
		t.Fatal("Dial succeeded against a listener that never acks")
	}
	raw := <-got
	if raw == nil {
		t.Fatal("no Open frame captured")
	}
	if h := hex.EncodeToString(raw); h != want {
		t.Errorf("shard Open frame:\n got %s\nwant %s", h, want)
	}
}
