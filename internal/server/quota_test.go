package server

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"accelstream/internal/admission"
	"accelstream/internal/core"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
	"accelstream/internal/workload"
)

// dialTenant opens a soft-uni session for the given tenant.
func dialTenant(addr, tenant string, window int) (*Client, error) {
	return Dial(addr, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: window, Tenant: tenant})
}

// TestQuotaSessionCapConcurrent races concurrent opens against a
// per-tenant session cap: exactly MaxSessions sessions must be admitted
// no matter the interleaving, the rest rejected with the typed code, and
// an unrelated tenant must be unaffected.
func TestQuotaSessionCapConcurrent(t *testing.T) {
	const cap, attempts = 3, 12
	srv, addr := startServer(t, Config{
		Quotas: admission.Config{Default: admission.Quota{MaxSessions: cap}},
	})
	var wg sync.WaitGroup
	admitted := make(chan *Client, attempts)
	rejected := make(chan error, attempts)
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := dialTenant(addr, "acme", 64)
			if err != nil {
				rejected <- err
			} else {
				admitted <- c
			}
		}()
	}
	wg.Wait()
	close(admitted)
	close(rejected)
	if got := len(admitted); got != cap {
		t.Fatalf("admitted %d sessions, want exactly %d", got, cap)
	}
	for err := range rejected {
		if !errors.Is(err, ErrAdmissionDenied) {
			t.Fatalf("rejection not typed ErrAdmissionDenied: %v", err)
		}
		var adm *AdmissionError
		if !errors.As(err, &adm) {
			t.Fatalf("rejection not an *AdmissionError: %v", err)
		}
		if adm.Code != wire.RejectQuotaSessions {
			t.Fatalf("reject code %v, want quota_sessions", adm.Code)
		}
		if adm.RetryAfter <= 0 {
			t.Fatalf("rejection carries no retry-after hint: %v", adm)
		}
	}
	if got := srv.ProcessStats().SessionsRejected["quota_sessions"]; got != attempts-cap {
		t.Fatalf("sessions_rejected_total{reason=quota_sessions} = %d, want %d", got, attempts-cap)
	}

	// Tenant B rides its own quota: the cap on acme does not touch it.
	cb, err := dialTenant(addr, "beta", 64)
	if err != nil {
		t.Fatalf("unrelated tenant rejected: %v", err)
	}

	// Closing one admitted session frees exactly one slot.
	var clients []*Client
	for c := range admitted {
		clients = append(clients, c)
	}
	go func() {
		for range clients[0].Results() {
		}
	}()
	if _, err := clients[0].Close(); err != nil {
		t.Fatal(err)
	}
	waitTenantSessions(t, srv, "acme", cap-1)
	c, err := dialTenant(addr, "acme", 64)
	if err != nil {
		t.Fatalf("admit after close rejected: %v", err)
	}
	for _, cl := range append(clients[1:], cb, c) {
		cl := cl
		go func() {
			for range cl.Results() {
			}
		}()
		cl.Close()
	}
}

// waitTenantSessions blocks until the tenant's live-session gauge reaches
// want (the server releases the lease asynchronously after Close).
func waitTenantSessions(t *testing.T, srv *Server, tenant string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		tenants, _ := srv.TenantMetrics()
		for _, tu := range tenants {
			if tu.Tenant == tenant && tu.Sessions == want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %s never reached %d sessions: %+v", tenant, want, tenants)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQuotaMemoryBudgetMixedWindows enforces the aggregate window-memory
// budget (2*W*16 bytes per session) across sessions of different window
// sizes.
func TestQuotaMemoryBudgetMixedWindows(t *testing.T) {
	// Budget for a total window of 768 tuples across the tenant's sessions.
	srv, addr := startServer(t, Config{
		Quotas: admission.Config{Default: admission.Quota{MaxWindowBytes: 2 * 768 * 16}},
	})
	c1, err := dialTenant(addr, "acme", 512)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := dialTenant(addr, "acme", 256)
	if err != nil {
		t.Fatal(err)
	}
	_, err = dialTenant(addr, "acme", 64)
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Code != wire.RejectQuotaMemory {
		t.Fatalf("over-budget open: %v", err)
	}
	if got := srv.ProcessStats().SessionsRejected["quota_memory"]; got != 1 {
		t.Fatalf("sessions_rejected_total{reason=quota_memory} = %d, want 1", got)
	}
	// Closing the 256-tuple session frees room for the 64-tuple one.
	go func() {
		for range c2.Results() {
		}
	}()
	if _, err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	waitTenantSessions(t, srv, "acme", 1)
	c3, err := dialTenant(addr, "acme", 64)
	if err != nil {
		t.Fatalf("open after release rejected: %v", err)
	}
	for _, cl := range []*Client{c1, c3} {
		cl := cl
		go func() {
			for range cl.Results() {
			}
		}()
		cl.Close()
	}
}

// TestQuotaRateShapingLossless drives a session well past its tuples/sec
// budget: the run must take at least the shaped duration, deliver every
// tuple (throttled is not lossy), stay oracle-equal, and count throttle
// events — while a second, unthrottled tenant on the same server is
// unaffected.
func TestQuotaRateShapingLossless(t *testing.T) {
	const (
		window  = 128
		tuples  = 4000
		batchSz = 200
		rate    = 20000 // tuples/sec for tenant "slow"
		burst   = 500
	)
	srv, addr := startServer(t, Config{
		Quotas: admission.Config{
			Tenants: map[string]admission.Quota{
				"slow": {RatePerSec: rate, Burst: burst},
			},
		},
	})
	c, err := dialTenant(addr, "slow", window)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.Spec{Seed: 7, KeyDomain: 256})
	if err != nil {
		t.Fatal(err)
	}
	inputs := gen.Take(tuples)
	var results []stream.Result
	done := make(chan struct{})
	go drainAll(c, &results, done)
	start := time.Now()
	for off := 0; off < len(inputs); off += batchSz {
		if err := c.SendBatch(inputs[off : off+batchSz]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	elapsed := time.Since(start)

	// Shaping oracle: everything past the burst pays 1/rate per tuple.
	// The last batch's debt is owed but not slept off (the session closes),
	// so the bound excludes it.
	minElapsed := time.Duration(float64(tuples-burst-batchSz) / rate * float64(time.Second))
	if elapsed < minElapsed {
		t.Fatalf("run finished in %v, shaping demands at least %v", elapsed, minElapsed)
	}
	if st.TuplesIn != tuples {
		t.Fatalf("server ingested %d tuples, want %d — shaping must never drop", st.TuplesIn, tuples)
	}
	if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, results); err != nil {
		t.Fatalf("throttled session not oracle-equal: %v", err)
	}
	tenants, total := srv.TenantMetrics()
	var slow *admission.TenantUsage
	for i := range tenants {
		if tenants[i].Tenant == "slow" {
			slow = &tenants[i]
		}
	}
	if slow == nil || slow.Throttled == 0 {
		t.Fatalf("no throttle events recorded for the shaped tenant: %+v", tenants)
	}
	if total < slow.Throttled {
		t.Fatalf("server-wide throttle count %d below tenant's %d", total, slow.Throttled)
	}

	// An unthrottled tenant on the same server runs at full speed.
	cf, err := dialTenant(addr, "fast", window)
	if err != nil {
		t.Fatal(err)
	}
	var fres []stream.Result
	fdone := make(chan struct{})
	go drainAll(cf, &fres, fdone)
	fstart := time.Now()
	for off := 0; off < len(inputs); off += batchSz {
		if err := cf.SendBatch(inputs[off : off+batchSz]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	<-fdone
	if felapsed := time.Since(fstart); felapsed > minElapsed {
		t.Logf("note: unthrottled tenant took %v (shaped bound %v); slow machine?", felapsed, minElapsed)
	}
}

// TestQuotaRateShapingPipelined: batches pipelined in one write reach the
// read loop together, where credits would otherwise be granted as one
// cumulative ack. Shaping must still withhold each throttled batch's
// credit for its own debt, so the wall-clock bound holds, and the session
// stays lossless and oracle-equal.
func TestQuotaRateShapingPipelined(t *testing.T) {
	const (
		window  = 128
		batches = 8
		batchSz = 250
		tuples  = batches * batchSz
		rate    = 10000
		burst   = 200
	)
	_, addr := startServer(t, Config{
		Quotas: admission.Config{
			Tenants: map[string]admission.Quota{
				"slow": {RatePerSec: rate, Burst: burst},
			},
		},
	})
	rs := dialRaw(t, addr, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 2, Window: window, Tenant: "slow"})
	gen, err := workload.NewGenerator(workload.Spec{Seed: 11, KeyDomain: 256})
	if err != nil {
		t.Fatal(err)
	}
	inputs := gen.Take(tuples)
	start := time.Now()
	rs.write(t, encode(t, func(w *wire.Writer) error {
		for i := 0; i < batches; i++ {
			if err := w.WriteBatch(uint64(i+1), inputs[i*batchSz:(i+1)*batchSz]); err != nil {
				return err
			}
		}
		return nil
	}))
	got := rs.read(t, untilCredits(batches))
	elapsed := time.Since(start)
	// Every batch overdraws the bucket, and each withhold starts only
	// after the earlier batches' credits went out: one grant per batch.
	if got.credits != batches || got.frames != batches {
		t.Fatalf("%d credits in %d Credit frames for %d throttled batches, want one frame each",
			got.credits, got.frames, batches)
	}
	// Every credit, the last batch's included, waits out its own debt:
	// everything past the burst pays 1/rate per tuple. The bound leaves
	// one batch of slack, as TestQuotaRateShapingLossless does.
	if minElapsed := time.Duration(float64(tuples-burst-batchSz) / rate * float64(time.Second)); elapsed < minElapsed {
		t.Fatalf("credits for %d pipelined batches returned in %v, shaping demands at least %v", batches, elapsed, minElapsed)
	}
	rs.write(t, encode(t, (*wire.Writer).WriteClose))
	var st wire.Stats
	rest := rs.read(t, func(f wire.Frame, _ *tally) bool {
		if f.Type != wire.FrameClosed {
			return false
		}
		if st, err = wire.DecodeClosed(f.Payload); err != nil {
			t.Fatal(err)
		}
		return true
	})
	if rest.credits != 0 {
		t.Fatalf("%d extra credits after all %d batches were credited", rest.credits, batches)
	}
	if st.TuplesIn != tuples {
		t.Fatalf("server ingested %d tuples, want %d — shaping must never drop", st.TuplesIn, tuples)
	}
	results := append(got.results, rest.results...)
	if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, results); err != nil {
		t.Fatalf("pipelined throttled session not oracle-equal: %v", err)
	}
}

// TestQuotaRejectRateLimitedOpen: a tenant deep in rate debt has new
// opens rejected with rate_limited and a retry-after hint sized to the
// debt.
func TestQuotaRejectRateLimitedOpen(t *testing.T) {
	const rate, burst = 1000, 100
	_, addr := startServer(t, Config{
		Quotas: admission.Config{Default: admission.Quota{RatePerSec: rate, Burst: burst}},
	})
	c, err := dialTenant(addr, "acme", 64)
	if err != nil {
		t.Fatal(err)
	}
	// One oversized batch puts the tenant multiple seconds into debt.
	gen, err := workload.NewGenerator(workload.Spec{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range c.Results() {
		}
	}()
	if err := c.SendBatch(gen.Take(4 * rate)); err != nil {
		t.Fatal(err)
	}
	// The open races the throttled session's debt, so retry a few times:
	// the second dial must observe the in-debt bucket while the first
	// batch's credit is still withheld.
	var adm *AdmissionError
	for i := 0; i < 50; i++ {
		c2, err2 := dialTenant(addr, "acme", 64)
		if errors.As(err2, &adm) {
			break
		}
		err = err2
		if err2 == nil {
			// Raced in before the batch charged the bucket; drop the
			// session and look again.
			go func() {
				for range c2.Results() {
				}
			}()
			c2.Close()
		}
		time.Sleep(10 * time.Millisecond)
	}
	if adm == nil {
		t.Fatalf("in-debt open never rejected: %v", err)
	}
	if adm.Code != wire.RejectRateLimited {
		t.Fatalf("reject code %v, want rate_limited", adm.Code)
	}
	if adm.RetryAfter <= 0 {
		t.Fatalf("rate_limited rejection carries no retry-after: %v", adm)
	}
	// Another tenant opens instantly.
	co, err := dialTenant(addr, "other", 64)
	if err != nil {
		t.Fatalf("unrelated tenant rejected: %v", err)
	}
	go func() {
		for range co.Results() {
		}
	}()
	co.Close()
	c.Close()
}

// TestV1OpenRefused: an Open frame in the deleted v1 positional encoding
// (bytes from the last encoder that wrote it) is refused as a malformed
// open — an Error frame naming the unsupported version, one more
// bad_open reject on /metrics — before admission, so no lease is held and
// the 1-session quota is still free for the next client.
func TestV1OpenRefused(t *testing.T) {
	srv, addr := startServer(t, Config{
		Quotas: admission.Config{Default: admission.Quota{MaxSessions: 1}},
	})
	v1Open, err := hex.DecodeString("01090101014000000000007eb6164d") // soft-uni, 1 core, window 64
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(v1Open); err != nil {
		t.Fatal(err)
	}
	f, err := wire.NewReader(conn).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if msg := wire.DecodeError(f.Payload); f.Type != wire.FrameError || !strings.Contains(msg, "protocol version 1 not supported") {
		t.Fatalf("v1 open answered with %v %q, want an error naming the unsupported version", f.Type, msg)
	}

	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if want := `streamd_sessions_rejected_total{reason="bad_open"} 1`; !strings.Contains(rec.Body.String(), want) {
		t.Errorf("metrics lack %s:\n%s", want, rec.Body.String())
	}
	tenants, _ := srv.TenantMetrics()
	for _, tu := range tenants {
		if tu.Sessions != 0 || tu.WindowBytes != 0 {
			t.Errorf("tenant %q holds a lease after a refused open: %+v", tu.Tenant, tu)
		}
	}
	c, err := Dial(addr, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 64})
	if err != nil {
		t.Fatalf("quota not free after a refused v1 open: %v", err)
	}
	c.Close()
}

// TestTenantDerivedFromAuthToken: an authenticated session without an
// explicit tenant is accounted under a stable hash of its token, never
// the raw token.
func TestTenantDerivedFromAuthToken(t *testing.T) {
	const token = "s3cret-token"
	srv, addr := startServer(t, Config{AuthToken: token})
	c, err := Dial(addr, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 64, AuthToken: token})
	if err != nil {
		t.Fatal(err)
	}
	want := admission.DeriveTenant("", token)
	var got string
	for _, m := range srv.Metrics() {
		if m.Open {
			got = m.Tenant
		}
	}
	if got != want {
		t.Fatalf("session tenant %q, want derived %q", got, want)
	}
	if strings.Contains(got, token) {
		t.Fatalf("raw token leaked into tenant identity %q", got)
	}
	go func() {
		for range c.Results() {
		}
	}()
	c.Close()
}

// TestQuotaMetricsExposition scrapes /metrics and checks the tenant
// families and the typed reject reasons appear.
func TestQuotaMetricsExposition(t *testing.T) {
	srv, addr := startServer(t, Config{
		Quotas: admission.Config{Default: admission.Quota{MaxSessions: 1}},
	})
	c, err := dialTenant(addr, "acme", 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dialTenant(addr, "acme", 64); !errors.Is(err, ErrAdmissionDenied) {
		t.Fatalf("second open: %v", err)
	}
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body, _ := io.ReadAll(rec.Result().Body)
	for _, want := range []string{
		`streamd_tenant_sessions{tenant="acme"} 1`,
		`streamd_tenant_window_bytes{tenant="acme"} ` + fmt.Sprint(2*64*16),
		`streamd_tenant_sessions_admitted_total{tenant="acme"} 1`,
		`streamd_tenant_throttled_total{tenant="acme"} 0`,
		`streamd_sessions_rejected_total{reason="quota_sessions"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	go func() {
		for range c.Results() {
		}
	}()
	c.Close()
}

// TestThrottledSessionTearsDownPromptly is the uninterruptible-sleep
// regression test: a session deep in rate debt used to ride out its whole
// withhold in a bare time.Sleep, stalling graceful drain for the debt
// duration. The withhold must now yield to the session's close signal
// (and is capped besides), so Shutdown with an expired context tears the
// session down promptly.
func TestThrottledSessionTearsDownPromptly(t *testing.T) {
	srv, addr := startServer(t, Config{
		Quotas: admission.Config{Default: admission.Quota{RatePerSec: 10}},
	})
	c, err := dialTenant(addr, "debtor", 64)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range c.Results() {
		}
	}()

	// One oversized batch at 10 tuples/sec: hundreds of seconds of debt,
	// far past both the withhold cap and any tolerable drain time.
	gen, err := workload.NewGenerator(workload.Spec{Seed: 7, KeyDomain: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch(gen.Take(5000)); err != nil {
		t.Fatal(err)
	}
	// Let the batch land in the read loop and the withhold begin.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, throttled := srv.TenantMetrics(); throttled > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never entered the throttle withhold")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	srv.Shutdown(ctx) // returns ctx.Err(); what matters is how long it blocks
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Shutdown blocked %v behind a throttled session (debt ~500s, withhold cap %v)",
			elapsed, maxCreditWithhold)
	}
}
