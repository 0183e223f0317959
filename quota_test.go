package accelstream

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// startQuotaServer serves on loopback with the given config and
// registers a cleanup shutdown.
func startQuotaServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, srv.Addr().String()
}

// closeQuietly drains and closes a session opened only for its handshake
// side effects.
func closeQuietly(c *Client) {
	go func() {
		for range c.Results() {
		}
	}()
	c.Close()
}

// TestDialOptionPrecedence pins the documented resolution order for the
// per-session knobs a SessionConfig carries and a server defaults:
// SessionConfig field > server default.
func TestDialOptionPrecedence(t *testing.T) {
	srv, addr := startQuotaServer(t, ServerConfig{ProbeKernel: KernelScan})
	base := SessionConfig{Engine: EngineSoftwareUniFlow, Cores: 1, Window: 64}

	// sessionBy dials, reads the session's resolved tenant and kernel off
	// the server's metrics, and closes. A prior case's session may still be
	// winding down server-side, so it polls for exactly one open session.
	sessionBy := func(cfg SessionConfig) (tenant, kernel string) {
		t.Helper()
		c, err := Dial(addr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer closeQuietly(c)
		deadline := time.Now().Add(5 * time.Second)
		for {
			open := 0
			for _, m := range srv.Metrics() {
				if m.Open {
					open++
					tenant, kernel = m.Tenant, m.Kernel
				}
			}
			if open == 1 {
				return tenant, kernel
			}
			if time.Now().After(deadline) {
				t.Fatalf("server reports %d open sessions, want 1", open)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	cases := []struct {
		name           string
		cfg            SessionConfig
		tenant, kernel string
	}{
		{"server defaults", base, "default", "scan"},
		{"config fields beat server default",
			func() SessionConfig { c := base; c.Tenant = "cfg-tenant"; c.ProbeKernel = KernelHash; return c }(),
			"cfg-tenant", "hash"},
	}
	for _, tc := range cases {
		tenant, kernel := sessionBy(tc.cfg)
		if tenant != tc.tenant || kernel != tc.kernel {
			t.Errorf("%s: resolved (tenant=%q, kernel=%q), want (%q, %q)",
				tc.name, tenant, kernel, tc.tenant, tc.kernel)
		}
	}
}

// TestServeQuotasFacade runs the two-tenant demo from the README through
// the public API: a JSON quota file (the -quota-config format) loaded via
// LoadQuotaConfig, ServerConfig.Quotas on Serve, typed rejections on Dial,
// and per-tenant accounting on Server.TenantMetrics.
func TestServeQuotasFacade(t *testing.T) {
	path := filepath.Join(t.TempDir(), "quotas.json")
	if err := os.WriteFile(path, []byte(`{
		"default": {"max_sessions": 1},
		"tenants": {"gold": {"max_sessions": 2}}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	quotas, err := LoadQuotaConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startQuotaServer(t, ServerConfig{Quotas: quotas})

	gold := SessionConfig{Engine: EngineSoftwareUniFlow, Cores: 1, Window: 64, Tenant: "gold"}
	bronze := gold
	bronze.Tenant = "bronze"
	gold1, err := Dial(addr, gold)
	if err != nil {
		t.Fatal(err)
	}
	defer closeQuietly(gold1)
	gold2, err := Dial(addr, gold)
	if err != nil {
		t.Fatalf("gold's second session within its override quota: %v", err)
	}
	defer closeQuietly(gold2)
	if _, err := Dial(addr, gold); !errors.Is(err, ErrAdmissionDenied) {
		t.Fatalf("gold's third session: got %v, want ErrAdmissionDenied", err)
	}

	bronze1, err := Dial(addr, bronze)
	if err != nil {
		t.Fatalf("bronze's first session under the default quota: %v", err)
	}
	defer closeQuietly(bronze1)
	_, err = Dial(addr, bronze)
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("bronze's second session: got %v, want *AdmissionError", err)
	}
	if adm.RetryAfter <= 0 {
		t.Errorf("typed rejection has no retry-after hint: %+v", adm)
	}

	tenants, _ := srv.TenantMetrics()
	got := map[string]int{}
	for _, tu := range tenants {
		got[tu.Tenant] = tu.Sessions
	}
	if got["gold"] != 2 || got["bronze"] != 1 {
		t.Errorf("tenant accounting %v, want gold=2 bronze=1", got)
	}
}
