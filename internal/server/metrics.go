package server

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"accelstream/internal/admission"
	"accelstream/internal/buildinfo"
	"accelstream/internal/stream"
)

// ProcessStats is a point-in-time snapshot of server-wide gauges, the
// process-level complement of the per-session Metrics slice.
type ProcessStats struct {
	// SessionsActive is the number of live sessions.
	SessionsActive int
	// SessionsTotal is the number of sessions ever opened.
	SessionsTotal uint64
	// CreditsOutstanding is the number of batch credits currently
	// withheld from clients: batches accepted off the wire whose credit
	// has not yet been returned. A persistently high value means the
	// engines (or the result paths back to clients) are saturated.
	CreditsOutstanding int64
	// SessionsRejected counts sessions turned away before reaching an
	// engine, keyed by reason: TLS handshake failures ("tls"), missing or
	// wrong auth tokens ("no_token"/"bad_token"), handshake timeouts,
	// malformed opens, capacity, and drain-time rejects.
	SessionsRejected map[string]uint64
	// ProbeKernel is the server's configured default probe kernel for
	// soft-uni sessions ("auto", "hash", or "scan").
	ProbeKernel string
	// Checkpoints summarizes the durable-snapshot subsystem; zero-valued
	// (Enabled false) when the server runs without a checkpoint directory.
	Checkpoints CheckpointStats
}

// CheckpointStats is a point-in-time snapshot of the durable-checkpoint
// counters.
type CheckpointStats struct {
	// Enabled reports whether a checkpoint directory is configured.
	Enabled bool
	// Written / Errors / Skipped count snapshot writes, failed attempts,
	// and automatic snapshots dropped because a write was in flight.
	Written uint64
	Errors  uint64
	Skipped uint64
	// LastUnixNanos / LastBytes / LastDuration describe the most recent
	// snapshot: when it was cut, its encoded size, and its write time.
	LastUnixNanos int64
	LastBytes     uint64
	LastDuration  time.Duration
	// Restores / RestoredTuples count snapshots installed into sessions
	// at open and the window tuples they carried.
	Restores       uint64
	RestoredTuples uint64
}

// ProcessStats snapshots the server-wide gauges.
func (s *Server) ProcessStats() ProcessStats {
	rejected := s.rejectCounts()
	s.mu.Lock()
	defer s.mu.Unlock()
	return ProcessStats{
		SessionsActive:     len(s.sessions),
		SessionsTotal:      s.nextID,
		CreditsOutstanding: s.creditsHeld.Load(),
		SessionsRejected:   rejected,
		ProbeKernel:        s.cfg.ProbeKernel.String(),
		Checkpoints: CheckpointStats{
			Enabled:        s.ckpt != nil,
			Written:        s.ckptTotal.Load(),
			Errors:         s.ckptErrors.Load(),
			Skipped:        s.ckptSkipped.Load(),
			LastUnixNanos:  s.ckptLastNanos.Load(),
			LastBytes:      s.ckptLastBytes.Load(),
			LastDuration:   time.Duration(s.ckptLastDur.Load()),
			Restores:       s.ckptRestores.Load(),
			RestoredTuples: s.ckptRestoreTuples.Load(),
		},
	}
}

// MetricsHandler returns an http.Handler serving the server's counters in
// the Prometheus text exposition format (hand-rolled; the repository takes
// no dependencies). Process-wide gauges are unlabelled; per-session
// counters carry session and engine labels. Mount it on /metrics:
//
//	http.Handle("/metrics", srv.MetricsHandler())
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var b strings.Builder
		writeProcessMetrics(&b, s.ProcessStats())
		tenants, throttled := s.TenantMetrics()
		writeTenantMetrics(&b, tenants, throttled, s.adm.Evicted())
		writeSessionMetrics(&b, s.Metrics())
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, b.String())
	})
}

func writeProcessMetrics(b *strings.Builder, ps ProcessStats) {
	gauge := func(name, help string, value any) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, value)
	}
	gauge("streamd_sessions_active", "Live client sessions.", ps.SessionsActive)
	fmt.Fprintf(b, "# HELP streamd_sessions_total Sessions ever opened.\n# TYPE streamd_sessions_total counter\nstreamd_sessions_total %d\n", ps.SessionsTotal)
	gauge("streamd_credits_outstanding", "Batch credits currently withheld from clients (in-flight batches).", ps.CreditsOutstanding)
	fmt.Fprint(b, "# HELP streamd_sessions_rejected_total Sessions turned away before reaching an engine, by reason.\n# TYPE streamd_sessions_rejected_total counter\n")
	reasons := make([]string, 0, len(ps.SessionsRejected))
	for reason := range ps.SessionsRejected {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		fmt.Fprintf(b, "streamd_sessions_rejected_total{reason=%q} %d\n", reason, ps.SessionsRejected[reason])
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge("streamd_goroutines", "Goroutines in the process.", runtime.NumGoroutine())
	gauge("streamd_heap_alloc_bytes", "Heap bytes allocated and in use.", ms.HeapAlloc)
	fmt.Fprintf(b, "# HELP streamd_build_info Build identity of the running server (constant 1).\n# TYPE streamd_build_info gauge\nstreamd_build_info{version=%q} 1\n",
		buildinfo.Version())
	fmt.Fprintf(b, "# HELP streamd_probe_kernel Default probe kernel for soft-uni sessions, and the lanes its block scan runs on (constant 1).\n# TYPE streamd_probe_kernel gauge\nstreamd_probe_kernel{kernel=%q,lanes=%q} 1\n",
		ps.ProbeKernel, stream.ScanLanes())
	if ps.Checkpoints.Enabled {
		writeCheckpointMetrics(b, ps.Checkpoints)
	}
}

func writeCheckpointMetrics(b *strings.Builder, cs CheckpointStats) {
	counter := func(name, help string, value uint64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, value)
	}
	gauge := func(name, help string, value any) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, value)
	}
	counter("streamd_checkpoints_written_total", "Durable snapshots written.", cs.Written)
	counter("streamd_checkpoint_errors_total", "Snapshot attempts that failed.", cs.Errors)
	counter("streamd_checkpoints_skipped_total", "Automatic snapshots skipped because a write was in flight.", cs.Skipped)
	age := float64(-1)
	if cs.LastUnixNanos > 0 {
		age = time.Since(time.Unix(0, cs.LastUnixNanos)).Seconds()
	}
	gauge("streamd_checkpoint_age_seconds", "Seconds since the newest snapshot was cut (-1: none yet).", age)
	gauge("streamd_checkpoint_last_bytes", "Encoded size of the newest snapshot.", cs.LastBytes)
	gauge("streamd_checkpoint_last_duration_seconds", "Wall time the newest snapshot write took.", cs.LastDuration.Seconds())
	counter("streamd_checkpoint_restores_total", "Snapshots restored into sessions at open.", cs.Restores)
	counter("streamd_checkpoint_restored_tuples_total", "Window tuples installed by restores.", cs.RestoredTuples)
}

// writeTenantMetrics emits the admission controller's per-tenant
// accounting. Tenant identities are restricted to a label-safe charset at
// the wire layer (wire.ValidTenant), so they are quoted verbatim.
func writeTenantMetrics(b *strings.Builder, tenants []admission.TenantUsage, throttledTotal, evicted uint64) {
	fmt.Fprintf(b, "# HELP streamd_tenants_live Distinct tenant entries currently accounted.\n# TYPE streamd_tenants_live gauge\nstreamd_tenants_live %d\n", len(tenants))
	fmt.Fprintf(b, "# HELP streamd_tenants_evicted_total Idle zero-usage tenant entries swept from the accounting table.\n# TYPE streamd_tenants_evicted_total counter\nstreamd_tenants_evicted_total %d\n", evicted)
	fmt.Fprint(b, "# HELP streamd_tenant_sessions Live sessions per tenant.\n# TYPE streamd_tenant_sessions gauge\n")
	for _, t := range tenants {
		fmt.Fprintf(b, "streamd_tenant_sessions{tenant=%q} %d\n", t.Tenant, t.Sessions)
	}
	fmt.Fprint(b, "# HELP streamd_tenant_window_bytes Aggregate window memory accounted per tenant (2*window*16 bytes per session).\n# TYPE streamd_tenant_window_bytes gauge\n")
	for _, t := range tenants {
		fmt.Fprintf(b, "streamd_tenant_window_bytes{tenant=%q} %d\n", t.Tenant, t.WindowBytes)
	}
	fmt.Fprint(b, "# HELP streamd_tenant_sessions_admitted_total Sessions ever admitted per tenant.\n# TYPE streamd_tenant_sessions_admitted_total counter\n")
	for _, t := range tenants {
		fmt.Fprintf(b, "streamd_tenant_sessions_admitted_total{tenant=%q} %d\n", t.Tenant, t.Admitted)
	}
	fmt.Fprint(b, "# HELP streamd_tenant_throttled_total Batch credits withheld by rate shaping, per tenant.\n# TYPE streamd_tenant_throttled_total counter\n")
	for _, t := range tenants {
		fmt.Fprintf(b, "streamd_tenant_throttled_total{tenant=%q} %d\n", t.Tenant, t.Throttled)
	}
	fmt.Fprintf(b, "# HELP streamd_throttled_total Batch credits withheld by rate shaping, server-wide.\n# TYPE streamd_throttled_total counter\nstreamd_throttled_total %d\n", throttledTotal)
}

func writeSessionMetrics(b *strings.Builder, sessions []SessionMetrics) {
	counter := func(name, help string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	label := func(m SessionMetrics) string {
		return fmt.Sprintf(`{session="%d",engine="%s"}`, m.ID, m.Engine)
	}
	// Keep output deterministic for scrapers and tests.
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].ID < sessions[j].ID })
	counter("streamd_session_tuples_in_total", "Tuples ingested per session.")
	for _, m := range sessions {
		fmt.Fprintf(b, "streamd_session_tuples_in_total%s %d\n", label(m), m.TuplesIn)
	}
	counter("streamd_session_batches_in_total", "Batch frames ingested per session.")
	for _, m := range sessions {
		fmt.Fprintf(b, "streamd_session_batches_in_total%s %d\n", label(m), m.BatchesIn)
	}
	counter("streamd_session_results_out_total", "Join results streamed back per session.")
	for _, m := range sessions {
		fmt.Fprintf(b, "streamd_session_results_out_total%s %d\n", label(m), m.ResultsOut)
	}
	// Histogram-style sum/count pair: sum/count = mean results coalesced
	// per Results frame, the emit-path batching the slab pipeline feeds.
	counter("streamd_session_result_frame_tuples_sum", "Join results carried in Results frames per session (pairs with _count for mean frame size).")
	for _, m := range sessions {
		fmt.Fprintf(b, "streamd_session_result_frame_tuples_sum%s %d\n", label(m), m.ResultsOut)
	}
	counter("streamd_session_result_frame_tuples_count", "Results frames written per session.")
	for _, m := range sessions {
		fmt.Fprintf(b, "streamd_session_result_frame_tuples_count%s %d\n", label(m), m.ResultFrames)
	}
	fmt.Fprint(b, "# HELP streamd_session_open Whether the session is live (1) or closed (0).\n# TYPE streamd_session_open gauge\n")
	for _, m := range sessions {
		open := 0
		if m.Open {
			open = 1
		}
		fmt.Fprintf(b, "streamd_session_open%s %d\n", label(m), open)
	}
	fmt.Fprint(b, "# HELP streamd_session_backlog Undelivered engine results queued per live session.\n# TYPE streamd_session_backlog gauge\n")
	for _, m := range sessions {
		fmt.Fprintf(b, "streamd_session_backlog%s %d\n", label(m), m.Backlog)
	}
	fmt.Fprint(b, "# HELP streamd_session_probe_kernel Concrete probe kernel the session's engine runs (constant 1).\n# TYPE streamd_session_probe_kernel gauge\n")
	for _, m := range sessions {
		if m.Kernel == "" {
			continue // engine without probe kernels
		}
		fmt.Fprintf(b, "streamd_session_probe_kernel{session=\"%d\",engine=%q,kernel=%q} 1\n", m.ID, m.Engine, m.Kernel)
	}
}
