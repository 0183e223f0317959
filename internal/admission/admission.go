// Package admission implements the multi-tenant admission-control and
// quota layer in front of the stream-join service. The paper's distributed
// deployment (Figs. 10-12) assumes every node stays inside its memory and
// ingest envelope; this package is what keeps that assumption true when
// many untrusted clients share one server: every session opens under a
// tenant identity and is counted against per-tenant and server-wide
// quotas — concurrent sessions, aggregate window memory, and a
// token-bucket ingest rate.
//
// The three limits fail differently, on purpose:
//
//   - Session and memory quotas gate admission: an over-limit Open is
//     rejected fast with a typed reject code, before any engine is built.
//   - The rate quota shapes running sessions: a tenant over its tuples/sec
//     budget has its batch credits withheld (the session sleeps before
//     returning the credit), so backpressure stays exact and no batch is
//     ever dropped — throttled, never lossy. Only a tenant already deep in
//     rate debt has new Opens rejected (RejectRateLimited with a
//     retry-after hint), since they could not ingest anyway.
//
// Accounting is by tenant identity, not by connection: all of a tenant's
// sessions share one bucket and one memory budget, whichever client opened
// them.
package admission

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"accelstream/internal/wire"
)

// DefaultTenant is the tenant identity of sessions that carry neither an
// explicit tenant nor an auth token.
const DefaultTenant = "default"

// DefaultRetryAfter is the retry hint attached to session- and
// memory-quota rejections, which have no natural time horizon (the quota
// frees whenever some session closes).
const DefaultRetryAfter = time.Second

// DefaultMaxTenants caps distinct live tenant entries when
// Config.MaxTenants is 0. Tenant identities are client-supplied, each
// entry costs heap and a /metrics label series, so "no configured cap"
// must still not mean "unbounded".
const DefaultMaxTenants = 4096

// DefaultEvictAfter is the idle period after which a zero-usage tenant
// entry is dropped when Config.EvictAfterMS is 0.
const DefaultEvictAfter = 5 * time.Minute

// Quota bounds one tenant's — or, as Config.Server, the whole server's —
// resource usage. Zero values mean unlimited, so the zero Quota admits
// everything.
type Quota struct {
	// MaxSessions caps concurrent sessions. 0 = unlimited.
	MaxSessions int `json:"max_sessions,omitempty"`
	// MaxWindowBytes caps the aggregate window memory of concurrent
	// sessions, where one session accounts for 2*Window*16 bytes (two
	// sliding windows of 16-byte tuples). 0 = unlimited.
	MaxWindowBytes int64 `json:"max_window_bytes,omitempty"`
	// RatePerSec caps sustained ingest in tuples per second via a token
	// bucket. 0 = unlimited.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket depth in tuples — how far above the sustained
	// rate a short spike may run. 0 = one second's worth (RatePerSec).
	Burst float64 `json:"burst,omitempty"`
}

// unlimited reports whether the quota admits everything.
func (q Quota) unlimited() bool {
	return q.MaxSessions == 0 && q.MaxWindowBytes == 0 && q.RatePerSec == 0
}

// burst returns the effective bucket depth.
func (q Quota) burst() float64 {
	if q.Burst > 0 {
		return q.Burst
	}
	return q.RatePerSec
}

// Config configures a Controller: a server-wide aggregate quota, a default
// per-tenant quota, and per-tenant overrides.
type Config struct {
	// Server is the aggregate quota across all tenants.
	Server Quota `json:"server,omitempty"`
	// Default applies to every tenant without a Tenants entry.
	Default Quota `json:"default,omitempty"`
	// Tenants maps tenant identities to their quotas.
	Tenants map[string]Quota `json:"tenants,omitempty"`
	// MaxTenants caps distinct live tenant entries (idle ones are swept
	// first; a genuinely full table rejects new tenants with
	// RejectQuotaTenants). 0 = DefaultMaxTenants; negative = unlimited.
	MaxTenants int `json:"max_tenants,omitempty"`
	// EvictAfterMS is how long a zero-usage tenant entry (no sessions, no
	// window memory, bucket solvent) may sit idle before eviction.
	// 0 = DefaultEvictAfter; negative = never evict.
	EvictAfterMS int64 `json:"evict_after_ms,omitempty"`
}

// maxTenants resolves the live-tenant cap (0 when unlimited).
func (c Config) maxTenants() int {
	switch {
	case c.MaxTenants > 0:
		return c.MaxTenants
	case c.MaxTenants < 0:
		return 0
	default:
		return DefaultMaxTenants
	}
}

// evictAfter resolves the idle-eviction period (0 when eviction is off).
func (c Config) evictAfter() time.Duration {
	switch {
	case c.EvictAfterMS > 0:
		return time.Duration(c.EvictAfterMS) * time.Millisecond
	case c.EvictAfterMS < 0:
		return 0
	default:
		return DefaultEvictAfter
	}
}

// Enabled reports whether any limit is configured at all; a disabled
// config still accounts usage (for metrics) but never rejects or
// throttles.
func (c Config) Enabled() bool {
	if !c.Server.unlimited() || !c.Default.unlimited() {
		return true
	}
	for _, q := range c.Tenants {
		if !q.unlimited() {
			return true
		}
	}
	return false
}

// quotaFor resolves the quota of one tenant.
func (c Config) quotaFor(tenant string) Quota {
	if q, ok := c.Tenants[tenant]; ok {
		return q
	}
	return c.Default
}

// LoadConfig reads a Config from a JSON file, e.g.
//
//	{
//	  "server":  {"max_sessions": 64, "rate_per_sec": 2e6},
//	  "default": {"max_sessions": 4, "max_window_bytes": 4194304},
//	  "tenants": {
//	    "acme": {"max_sessions": 16, "rate_per_sec": 500000, "burst": 1000000}
//	  }
//	}
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("admission: reading quota config: %w", err)
	}
	// A misspelt field would otherwise load as no limit at all.
	var cfg Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("admission: parsing quota config %s: %w", path, err)
	}
	for tenant := range cfg.Tenants {
		if !wire.ValidTenant(tenant) {
			return Config{}, fmt.Errorf("admission: quota config %s: invalid tenant identity %q", path, tenant)
		}
	}
	return cfg, nil
}

// DeriveTenant resolves a session's tenant identity: an explicit tenant
// from the Open frame wins; otherwise an authenticated session is
// accounted under a stable hash of its token (the raw token never reaches
// metric labels or logs); otherwise the shared default tenant.
func DeriveTenant(explicit, authToken string) string {
	if explicit != "" {
		return explicit
	}
	if authToken != "" {
		sum := sha256.Sum256([]byte(authToken))
		return "token-" + hex.EncodeToString(sum[:6])
	}
	return DefaultTenant
}

// Reject is a typed admission denial: the wire code to answer with and a
// retry-after hint.
type Reject struct {
	Code       wire.RejectCode
	RetryAfter time.Duration
	// Scope names what was exhausted ("tenant" or "server"), for logs.
	Scope string
}

// Error implements the error interface.
func (r *Reject) Error() string {
	return fmt.Sprintf("admission denied: %s (%s quota, retry after %v)", r.Code, r.Scope, r.RetryAfter)
}

// bucket is a token bucket with a debt model: charging may push tokens
// negative, and the owed delay is the time until the balance refills to
// zero. Charging first, sleeping after, keeps the shaping work-conserving:
// a burst is admitted immediately and the cost is paid as credit delay on
// the batches that follow.
type bucket struct {
	rate   float64 // tokens per second; 0 = disabled
	depth  float64 // max balance
	tokens float64
	last   time.Time
}

func newBucket(rate, depth float64, now time.Time) bucket {
	return bucket{rate: rate, depth: depth, tokens: depth, last: now}
}

// refill advances the bucket to now. Time only moves forward here: when
// the wall clock steps backwards (NTP correction, VM resume), now is
// behind b.last and the bucket simply stays put — rewinding b.last would
// make the next refill count the stepped-over interval twice and mint
// free tokens.
func (b *bucket) refill(now time.Time) {
	if b.rate <= 0 {
		return
	}
	dt := now.Sub(b.last).Seconds()
	if dt <= 0 {
		return
	}
	b.tokens += dt * b.rate
	if b.tokens > b.depth {
		b.tokens = b.depth
	}
	b.last = now
}

// charge subtracts n tokens and returns how long the caller must wait for
// the balance to return to zero (0 when the bucket stays solvent).
func (b *bucket) charge(n float64, now time.Time) time.Duration {
	if b.rate <= 0 {
		return 0
	}
	b.refill(now)
	b.tokens -= n
	return b.debt()
}

// debt returns the delay until the balance reaches zero.
func (b *bucket) debt() time.Duration {
	if b.rate <= 0 || b.tokens >= 0 {
		return 0
	}
	return time.Duration(-b.tokens / b.rate * float64(time.Second))
}

// tenantState is the live accounting of one tenant.
type tenantState struct {
	quota       Quota
	sessions    int
	windowBytes int64
	bucket      bucket
	throttled   uint64 // cumulative throttle events (delayed credits)
	admitted    uint64 // cumulative admitted sessions
	lastActive  time.Time
}

// idle reports whether the entry holds no live resources: no sessions, no
// window memory, and a solvent bucket (an indebted tenant keeps its entry
// so the debt outlives its sessions — evicting it would forgive the debt).
func (ts *tenantState) idle(now time.Time) bool {
	if ts.sessions != 0 || ts.windowBytes != 0 {
		return false
	}
	ts.bucket.refill(now)
	return ts.bucket.debt() == 0
}

// Controller enforces a Config. All methods are safe for concurrent use.
type Controller struct {
	mu      sync.Mutex
	cfg     Config
	tenants map[string]*tenantState

	// Server-wide aggregates.
	sessions    int
	windowBytes int64
	srvBucket   bucket
	throttled   uint64
	evicted     uint64
	lastSweep   time.Time

	now func() time.Time // injectable clock for tests
}

// NewController builds a Controller for cfg. A zero cfg yields a
// controller that admits everything but still accounts per-tenant usage.
func NewController(cfg Config) *Controller {
	c := &Controller{cfg: cfg, tenants: make(map[string]*tenantState), now: time.Now}
	now := c.now()
	c.srvBucket = newBucket(cfg.Server.RatePerSec, cfg.Server.burst(), now)
	c.lastSweep = now
	return c
}

// state returns (creating if needed) the accounting entry for a tenant.
// Callers hold c.mu and have already enforced the live-tenant cap for new
// entries (Admit does both).
func (c *Controller) state(tenant string, now time.Time) *tenantState {
	ts, ok := c.tenants[tenant]
	if !ok {
		q := c.cfg.quotaFor(tenant)
		ts = &tenantState{quota: q, bucket: newBucket(q.RatePerSec, q.burst(), now), lastActive: now}
		c.tenants[tenant] = ts
	}
	return ts
}

// sweepLocked drops tenant entries that hold no live resources and have
// been idle past the eviction period. Callers hold c.mu.
func (c *Controller) sweepLocked(now time.Time) {
	ttl := c.cfg.evictAfter()
	if ttl <= 0 {
		return
	}
	c.lastSweep = now
	for name, ts := range c.tenants {
		if ts.idle(now) && now.Sub(ts.lastActive) >= ttl {
			delete(c.tenants, name)
			c.evicted++
		}
	}
}

// Evicted returns the cumulative count of evicted idle tenant entries.
func (c *Controller) Evicted() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}

// Admit gates one session open: tenant is the derived tenant identity and
// windowBytes the session's window-memory cost (2*Window*16). On success
// the returned Lease holds the tenant's accounting slots until Release;
// on denial the Reject carries the wire code and retry hint.
func (c *Controller) Admit(tenant string, windowBytes int64) (*Lease, *Reject) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()

	// Tenant identities are client-supplied: before creating an entry for
	// a new one, sweep idle entries (periodically, and always under cap
	// pressure) and enforce the live-tenant cap, so an unauthenticated
	// client churning tenant strings cannot grow the table or the metric
	// cardinality without bound.
	if _, ok := c.tenants[tenant]; !ok {
		if ttl := c.cfg.evictAfter(); ttl > 0 && now.Sub(c.lastSweep) >= ttl {
			c.sweepLocked(now)
		}
		if max := c.cfg.maxTenants(); max > 0 && len(c.tenants) >= max {
			c.sweepLocked(now)
			if len(c.tenants) >= max {
				return nil, &Reject{Code: wire.RejectQuotaTenants, RetryAfter: DefaultRetryAfter, Scope: "server"}
			}
		}
	}
	ts := c.state(tenant, now)
	ts.lastActive = now

	if q := ts.quota; q.MaxSessions > 0 && ts.sessions >= q.MaxSessions {
		return nil, &Reject{Code: wire.RejectQuotaSessions, RetryAfter: DefaultRetryAfter, Scope: "tenant"}
	}
	if q := c.cfg.Server; q.MaxSessions > 0 && c.sessions >= q.MaxSessions {
		return nil, &Reject{Code: wire.RejectQuotaSessions, RetryAfter: DefaultRetryAfter, Scope: "server"}
	}
	if q := ts.quota; q.MaxWindowBytes > 0 && ts.windowBytes+windowBytes > q.MaxWindowBytes {
		return nil, &Reject{Code: wire.RejectQuotaMemory, RetryAfter: DefaultRetryAfter, Scope: "tenant"}
	}
	if q := c.cfg.Server; q.MaxWindowBytes > 0 && c.windowBytes+windowBytes > q.MaxWindowBytes {
		return nil, &Reject{Code: wire.RejectQuotaMemory, RetryAfter: DefaultRetryAfter, Scope: "server"}
	}
	// A tenant already in rate debt cannot usefully ingest: reject the
	// open with the time until its bucket is solvent again.
	ts.bucket.refill(now)
	if d := ts.bucket.debt(); d > 0 {
		return nil, &Reject{Code: wire.RejectRateLimited, RetryAfter: d, Scope: "tenant"}
	}
	c.srvBucket.refill(now)
	if d := c.srvBucket.debt(); d > 0 {
		return nil, &Reject{Code: wire.RejectRateLimited, RetryAfter: d, Scope: "server"}
	}

	ts.sessions++
	ts.windowBytes += windowBytes
	ts.admitted++
	c.sessions++
	c.windowBytes += windowBytes
	return &Lease{c: c, tenant: tenant, ts: ts, windowBytes: windowBytes}, nil
}

// Lease is one admitted session's hold on its tenant's quotas.
type Lease struct {
	c           *Controller
	tenant      string
	ts          *tenantState
	windowBytes int64

	mu       sync.Mutex
	released bool
}

// Tenant returns the tenant identity the lease is accounted under.
func (l *Lease) Tenant() string { return l.tenant }

// Release returns the session's quota slots. Idempotent.
func (l *Lease) Release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.released {
		return
	}
	l.released = true
	l.c.mu.Lock()
	defer l.c.mu.Unlock()
	l.ts.sessions--
	l.ts.windowBytes -= l.windowBytes
	l.ts.lastActive = l.c.now()
	l.c.sessions--
	l.c.windowBytes -= l.windowBytes
}

// Throttle charges n ingested tuples against the tenant's and the
// server's rate buckets and returns how long the session must withhold
// the batch credit (the max of both debts; 0 when neither bucket is in
// debt). The caller sleeps, then returns the credit — shaping by delay,
// never by drop.
func (l *Lease) Throttle(n int) time.Duration {
	l.c.mu.Lock()
	defer l.c.mu.Unlock()
	now := l.c.now()
	l.ts.lastActive = now
	d := l.ts.bucket.charge(float64(n), now)
	if sd := l.c.srvBucket.charge(float64(n), now); sd > d {
		d = sd
	}
	if d > 0 {
		l.ts.throttled++
		l.c.throttled++
	}
	return d
}

// TenantUsage is one tenant's accounting snapshot, for the metrics
// exposition.
type TenantUsage struct {
	Tenant      string
	Sessions    int
	WindowBytes int64
	Throttled   uint64 // cumulative credit-withhold events
	Admitted    uint64 // cumulative admitted sessions
}

// Snapshot returns the per-tenant usage, sorted by tenant identity, plus
// the server-wide cumulative throttle count.
func (c *Controller) Snapshot() (tenants []TenantUsage, throttledTotal uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tenants = make([]TenantUsage, 0, len(c.tenants))
	for name, ts := range c.tenants {
		tenants = append(tenants, TenantUsage{
			Tenant:      name,
			Sessions:    ts.sessions,
			WindowBytes: ts.windowBytes,
			Throttled:   ts.throttled,
			Admitted:    ts.admitted,
		})
	}
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].Tenant < tenants[j].Tenant })
	return tenants, c.throttled
}
