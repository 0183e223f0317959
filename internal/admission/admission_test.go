package admission

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"accelstream/internal/wire"
)

// fakeClock is a manually advanced clock for deterministic bucket math.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0)}
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// TestAdmitSessionCapRace races many concurrent opens against a session
// cap: exactly MaxSessions must be admitted, no matter the interleaving.
func TestAdmitSessionCapRace(t *testing.T) {
	const cap, attempts = 5, 64
	c := NewController(Config{Default: Quota{MaxSessions: cap}})
	var wg sync.WaitGroup
	leases := make(chan *Lease, attempts)
	rejects := make(chan *Reject, attempts)
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if l, rej := c.Admit("acme", 1024); rej != nil {
				rejects <- rej
			} else {
				leases <- l
			}
		}()
	}
	wg.Wait()
	close(leases)
	close(rejects)
	if got := len(leases); got != cap {
		t.Fatalf("admitted %d sessions, want exactly %d", got, cap)
	}
	if got := len(rejects); got != attempts-cap {
		t.Fatalf("rejected %d sessions, want %d", got, attempts-cap)
	}
	for rej := range rejects {
		if rej.Code != wire.RejectQuotaSessions {
			t.Fatalf("reject code %v, want quota_sessions", rej.Code)
		}
		if rej.RetryAfter <= 0 {
			t.Fatal("quota rejection carries no retry-after hint")
		}
	}
	// Releasing one slot admits exactly one more.
	var first *Lease
	for l := range leases {
		first = l
		break
	}
	first.Release()
	first.Release() // idempotent
	if _, rej := c.Admit("acme", 1024); rej != nil {
		t.Fatalf("admit after release rejected: %v", rej)
	}
	if _, rej := c.Admit("acme", 1024); rej == nil {
		t.Fatal("admit beyond cap accepted")
	}
}

// TestAdmitMemoryBudget covers the aggregate window-memory budget across
// mixed window sizes, for one tenant and server-wide.
func TestAdmitMemoryBudget(t *testing.T) {
	c := NewController(Config{
		Default: Quota{MaxWindowBytes: 10_000},
		Server:  Quota{MaxWindowBytes: 16_000},
	})
	a1, rej := c.Admit("a", 6_000)
	if rej != nil {
		t.Fatalf("first admit rejected: %v", rej)
	}
	if _, rej := c.Admit("a", 6_000); rej == nil || rej.Code != wire.RejectQuotaMemory {
		t.Fatalf("tenant over-budget admit: %v", rej)
	}
	if _, rej := c.Admit("a", 4_000); rej != nil {
		t.Fatalf("tenant at-budget admit rejected: %v", rej)
	}
	// Tenant b has its own 10k budget, but the server-wide 16k cap now has
	// only 6k left.
	if _, rej := c.Admit("b", 8_000); rej == nil || rej.Code != wire.RejectQuotaMemory || rej.Scope != "server" {
		t.Fatalf("server over-budget admit: %v", rej)
	}
	if _, rej := c.Admit("b", 6_000); rej != nil {
		t.Fatalf("server at-budget admit rejected: %v", rej)
	}
	// Releasing frees the bytes on both scopes: b can take 4k more (10k
	// tenant budget, and the server cap has 6k free after the release).
	a1.Release()
	if _, rej := c.Admit("b", 4_000); rej != nil {
		t.Fatalf("admit after release rejected: %v", rej)
	}
}

// TestThrottleShaping checks the token-bucket debt math against a hand
// oracle: a burst is admitted instantly, sustained overload accrues delay
// proportional to the excess, and the delay disappears once the clock
// catches up.
func TestThrottleShaping(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Default: Quota{RatePerSec: 1000, Burst: 500}})
	c.now = clk.now
	l, rej := c.Admit("acme", 0)
	if rej != nil {
		t.Fatal(rej)
	}
	// The first 500 tuples ride the burst: no delay.
	if d := l.Throttle(500); d != 0 {
		t.Fatalf("burst-sized charge delayed %v", d)
	}
	// The next 1000 overdraw by 1000 tokens at 1000/s: one second owed.
	d := l.Throttle(1000)
	if math.Abs(d.Seconds()-1.0) > 1e-9 {
		t.Fatalf("debt delay %v, want 1s", d)
	}
	// Advancing half the debt halves the remaining delay for the next
	// zero-cost charge.
	clk.advance(500 * time.Millisecond)
	if d := l.Throttle(0); math.Abs(d.Seconds()-0.5) > 1e-9 {
		t.Fatalf("remaining debt %v, want 500ms", d)
	}
	// After the full debt elapses the bucket is solvent again.
	clk.advance(time.Second)
	if d := l.Throttle(100); d != 0 {
		t.Fatalf("solvent charge delayed %v", d)
	}
	_, throttled := c.Snapshot()
	if throttled != 2 {
		t.Fatalf("throttle events %d, want 2", throttled)
	}
}

// TestThrottleServerBucket: the server-wide bucket shapes the sum of all
// tenants, and the per-session delay is the max of both debts.
func TestThrottleServerBucket(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Server: Quota{RatePerSec: 1000, Burst: 100}})
	c.now = clk.now
	la, _ := c.Admit("a", 0)
	lb, _ := c.Admit("b", 0)
	if d := la.Throttle(1100); math.Abs(d.Seconds()-1.0) > 1e-9 {
		t.Fatalf("server debt %v, want 1s", d)
	}
	// Tenant b shares the server bucket: its charge deepens the same debt.
	if d := lb.Throttle(1000); math.Abs(d.Seconds()-2.0) > 1e-9 {
		t.Fatalf("shared server debt %v, want 2s", d)
	}
}

// TestAdmitRateDebtReject: a tenant deep in rate debt has new opens
// rejected with RejectRateLimited and a retry-after equal to the debt.
func TestAdmitRateDebtReject(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Default: Quota{RatePerSec: 1000, Burst: 100}})
	c.now = clk.now
	l, rej := c.Admit("acme", 0)
	if rej != nil {
		t.Fatal(rej)
	}
	l.Throttle(2100) // 2 seconds of debt
	_, rej = c.Admit("acme", 0)
	if rej == nil || rej.Code != wire.RejectRateLimited {
		t.Fatalf("in-debt admit: %v", rej)
	}
	if math.Abs(rej.RetryAfter.Seconds()-2.0) > 1e-9 {
		t.Fatalf("retry-after %v, want 2s", rej.RetryAfter)
	}
	// Another tenant is unaffected.
	if _, rej := c.Admit("other", 0); rej != nil {
		t.Fatalf("unrelated tenant rejected: %v", rej)
	}
	// Once the debt elapses, the tenant admits again.
	clk.advance(2100 * time.Millisecond)
	if _, rej := c.Admit("acme", 0); rej != nil {
		t.Fatalf("post-debt admit rejected: %v", rej)
	}
}

// TestTenantOverride: a Tenants entry replaces the default quota rather
// than stacking on it.
func TestTenantOverride(t *testing.T) {
	c := NewController(Config{
		Default: Quota{MaxSessions: 1},
		Tenants: map[string]Quota{"big": {MaxSessions: 3}},
	})
	for i := 0; i < 3; i++ {
		if _, rej := c.Admit("big", 0); rej != nil {
			t.Fatalf("override admit %d rejected: %v", i, rej)
		}
	}
	if _, rej := c.Admit("big", 0); rej == nil {
		t.Fatal("override cap not enforced")
	}
	if _, rej := c.Admit("small", 0); rej != nil {
		t.Fatalf("default admit rejected: %v", rej)
	}
	if _, rej := c.Admit("small", 0); rej == nil {
		t.Fatal("default cap not enforced")
	}
}

func TestLoadConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "quota.json")
	body := `{
		"server":  {"max_sessions": 64, "rate_per_sec": 2000000},
		"default": {"max_sessions": 4, "max_window_bytes": 4194304},
		"tenants": {"acme": {"max_sessions": 16, "rate_per_sec": 500000, "burst": 1000000}}
	}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Server.MaxSessions != 64 || cfg.Server.RatePerSec != 2e6 {
		t.Fatalf("server quota: %+v", cfg.Server)
	}
	if cfg.Default.MaxWindowBytes != 4194304 {
		t.Fatalf("default quota: %+v", cfg.Default)
	}
	if q := cfg.quotaFor("acme"); q.MaxSessions != 16 || q.burst() != 1e6 {
		t.Fatalf("acme quota: %+v", q)
	}
	if q := cfg.quotaFor("unknown"); q.MaxSessions != 4 {
		t.Fatalf("fallback quota: %+v", q)
	}
	if !cfg.Enabled() {
		t.Fatal("configured quotas report disabled")
	}
	if (Config{}).Enabled() {
		t.Fatal("zero config reports enabled")
	}

	if err := os.WriteFile(path, []byte(`{"tenants": {"bad tenant": {}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(path); err == nil {
		t.Fatal("invalid tenant identity accepted")
	}
	if err := os.WriteFile(path, []byte(`{"server": {"max_sesions": 4}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(path); err == nil || !strings.Contains(err.Error(), "max_sesions") {
		t.Fatalf("misspelt quota field: %v, want an error naming it", err)
	}
	if err := os.WriteFile(path, []byte(`{nope`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(path); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if _, err := LoadConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestDeriveTenant(t *testing.T) {
	if got := DeriveTenant("acme", "tok"); got != "acme" {
		t.Fatalf("explicit tenant: %q", got)
	}
	d1 := DeriveTenant("", "token-one")
	d2 := DeriveTenant("", "token-one")
	d3 := DeriveTenant("", "token-two")
	if d1 != d2 || d1 == d3 {
		t.Fatalf("token-derived tenants unstable: %q %q %q", d1, d2, d3)
	}
	if d1 == "token-one" || len(d1) < 8 {
		t.Fatalf("token leaked into tenant identity: %q", d1)
	}
	if !wire.ValidTenant(d1) {
		t.Fatalf("derived tenant %q not wire-valid", d1)
	}
	if got := DeriveTenant("", ""); got != DefaultTenant {
		t.Fatalf("anonymous tenant: %q", got)
	}
}

func TestSnapshot(t *testing.T) {
	c := NewController(Config{})
	lb, _ := c.Admit("beta", 2048)
	c.Admit("alpha", 1024)
	c.Admit("alpha", 1024)
	tenants, _ := c.Snapshot()
	if len(tenants) != 2 || tenants[0].Tenant != "alpha" || tenants[1].Tenant != "beta" {
		t.Fatalf("snapshot order: %+v", tenants)
	}
	if tenants[0].Sessions != 2 || tenants[0].WindowBytes != 2048 || tenants[0].Admitted != 2 {
		t.Fatalf("alpha usage: %+v", tenants[0])
	}
	lb.Release()
	tenants, _ = c.Snapshot()
	if tenants[1].Sessions != 0 || tenants[1].WindowBytes != 0 || tenants[1].Admitted != 1 {
		t.Fatalf("beta usage after release: %+v", tenants[1])
	}
}

// TestBucketClockRegression pins the refill clamp: a wall-clock step
// backwards (NTP correction, VM resume) must not rewind the bucket's
// refill anchor — the buggy behavior re-counted the stepped-over interval
// on the way forward and minted free tokens, silently forgiving rate
// debt.
func TestBucketClockRegression(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Default: Quota{RatePerSec: 100, Burst: 100}})
	c.now = clk.now
	l, rej := c.Admit("acme", 0)
	if rej != nil {
		t.Fatal(rej)
	}
	// Overdraw by 500 tokens at 100/s: 5 seconds of debt.
	if d := l.Throttle(600); math.Abs(d.Seconds()-5.0) > 1e-9 {
		t.Fatalf("initial debt %v, want 5s", d)
	}
	// The clock steps back 10s. The debt must not move.
	clk.advance(-10 * time.Second)
	if d := l.Throttle(0); math.Abs(d.Seconds()-5.0) > 1e-9 {
		t.Fatalf("debt after backwards step %v, want 5s", d)
	}
	// The clock returns to where it was. With the bug, refill counted the
	// 10 re-traversed seconds as elapsed time and minted 1000 tokens,
	// clearing the debt; fixed, no time has passed and the debt stands.
	clk.advance(10 * time.Second)
	if d := l.Throttle(0); math.Abs(d.Seconds()-5.0) > 1e-9 {
		t.Fatalf("debt after clock recovery %v, want 5s (free tokens minted)", d)
	}
	// Genuine forward progress still pays the debt down.
	clk.advance(2 * time.Second)
	if d := l.Throttle(0); math.Abs(d.Seconds()-3.0) > 1e-9 {
		t.Fatalf("debt after 2s %v, want 3s", d)
	}
}

// TestTenantEvictionBoundsState is the unbounded-growth regression test:
// 10k one-shot tenants (each opens one session and goes away) must not
// grow the live-tenant table or the metric label set past the cap —
// idle entries are swept as they age out, and every open is still
// admitted.
func TestTenantEvictionBoundsState(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{
		Default:      Quota{RatePerSec: 1000},
		MaxTenants:   100,
		EvictAfterMS: 1000,
	})
	c.now = clk.now
	const churn = 10_000
	for i := 0; i < churn; i++ {
		clk.advance(10 * time.Millisecond)
		l, rej := c.Admit(fmt.Sprintf("oneshot-%d", i), 1024)
		if rej != nil {
			t.Fatalf("one-shot tenant %d rejected: %v", i, rej)
		}
		l.Release()
	}
	tenants, _ := c.Snapshot()
	if len(tenants) > 101 {
		t.Fatalf("live tenant table grew to %d entries (cap 100)", len(tenants))
	}
	if ev := c.Evicted(); ev < churn-200 {
		t.Fatalf("evicted only %d of ~%d idle tenants", ev, churn)
	}

	// With the table full of not-yet-expired entries and the clock frozen,
	// brand-new tenant identities are rejected with the typed code instead
	// of growing the table.
	for i := 0; i < 200; i++ {
		_, rej := c.Admit(fmt.Sprintf("flood-%d", i), 1024)
		if rej == nil {
			t.Fatalf("flood tenant %d admitted past the cap", i)
		}
		if rej.Code != wire.RejectQuotaTenants {
			t.Fatalf("flood reject code %v, want quota_tenants", rej.Code)
		}
		if rej.RetryAfter <= 0 {
			t.Fatal("tenant-cap rejection carries no retry-after hint")
		}
	}
	if tenants, _ := c.Snapshot(); len(tenants) > 101 {
		t.Fatalf("rejected floods still grew the table to %d", len(tenants))
	}

	// Known tenants keep admitting even while the table is full.
	if _, rej := c.Admit(tenants[len(tenants)-1].Tenant, 1024); rej != nil {
		t.Fatalf("existing tenant rejected while table full: %v", rej)
	}
}

// TestEvictionSparesIndebtedTenant: eviction must not forgive rate debt —
// a zero-session tenant whose bucket is insolvent keeps its entry (and
// its debt) until the debt clears, even under cap pressure.
func TestEvictionSparesIndebtedTenant(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{
		Default:      Quota{RatePerSec: 100, Burst: 10},
		MaxTenants:   1,
		EvictAfterMS: 100,
	})
	c.now = clk.now
	l, rej := c.Admit("debtor", 0)
	if rej != nil {
		t.Fatal(rej)
	}
	l.Throttle(1010) // (1010-10)/100 = 10 seconds of debt
	l.Release()

	// Well past the idle period, but the debt is still outstanding: the
	// entry survives, so the 1-entry cap rejects a new tenant...
	clk.advance(time.Second)
	if _, rej := c.Admit("other", 0); rej == nil || rej.Code != wire.RejectQuotaTenants {
		t.Fatalf("indebted tenant evicted under pressure: %v", rej)
	}
	// ...and the debtor itself still carries the debt on re-open.
	if _, rej := c.Admit("debtor", 0); rej == nil || rej.Code != wire.RejectRateLimited {
		t.Fatalf("debt forgiven: %v", rej)
	}

	// Once the debt elapses the entry is idle, evictable, and the slot
	// frees for the new tenant.
	clk.advance(10 * time.Second)
	if _, rej := c.Admit("other", 0); rej != nil {
		t.Fatalf("post-debt admit rejected: %v", rej)
	}
	if c.Evicted() != 1 {
		t.Fatalf("evicted = %d, want 1", c.Evicted())
	}
}

// TestEvictionDisabled: a negative EvictAfterMS turns sweeping off, and a
// negative MaxTenants removes the cap (the pre-fix behavior, now opt-in).
func TestEvictionDisabled(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{MaxTenants: -1, EvictAfterMS: -1})
	c.now = clk.now
	for i := 0; i < 500; i++ {
		clk.advance(time.Minute)
		l, rej := c.Admit(fmt.Sprintf("t-%d", i), 0)
		if rej != nil {
			t.Fatalf("unlimited config rejected tenant %d: %v", i, rej)
		}
		l.Release()
	}
	if tenants, _ := c.Snapshot(); len(tenants) != 500 {
		t.Fatalf("unlimited config evicted: %d entries", len(tenants))
	}
	if c.Evicted() != 0 {
		t.Fatalf("evicted = %d with eviction disabled", c.Evicted())
	}
}

// TestRejectQuotaTenantsWire: the new reject code round-trips the wire
// enum contract (valid, labeled, distinct).
func TestRejectQuotaTenantsWire(t *testing.T) {
	if !wire.RejectQuotaTenants.Valid() {
		t.Fatal("RejectQuotaTenants not Valid()")
	}
	if got := wire.RejectQuotaTenants.String(); got != "quota_tenants" {
		t.Fatalf("String() = %q", got)
	}
	if wire.RejectQuotaTenants == wire.RejectRateLimited {
		t.Fatal("code collision")
	}
}
