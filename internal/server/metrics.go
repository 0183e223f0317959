package server

import (
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"time"

	"accelstream/internal/admission"
	"accelstream/internal/buildinfo"
	"accelstream/internal/metrics"
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
// the Prometheus text exposition format (written by internal/metrics; the
// repository takes no dependencies). Process-wide gauges are unlabelled;
// per-session counters carry session and engine labels. Mount it on
// /metrics:
//
//	http.Handle("/metrics", srv.MetricsHandler())
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", metrics.ContentType)
		mw := metrics.NewWriter(w)
		writeProcessMetrics(mw, s.ProcessStats())
		mw.Family("streamd_batch_seconds", "histogram", "Time from a Batch frame's decode to the engine accepting the push that carried it.")
		mw.Histogram("streamd_batch_seconds", &s.batchSeconds)
		mw.Family("streamd_result_write_seconds", "histogram", "Time to write one Results frame to its client connection.")
		mw.Histogram("streamd_result_write_seconds", &s.resultWriteSeconds)
		tenants, throttled := s.TenantMetrics()
		writeTenantMetrics(mw, tenants, throttled, s.adm.Evicted())
		writeSessionMetrics(mw, s.Metrics())
	})
}

func writeProcessMetrics(w *metrics.Writer, ps ProcessStats) {
	w.Gauge("streamd_sessions_active", "Live client sessions.", ps.SessionsActive)
	w.Counter("streamd_sessions_total", "Sessions ever opened.", ps.SessionsTotal)
	w.Gauge("streamd_credits_outstanding", "Batch credits currently withheld from clients (in-flight batches).", ps.CreditsOutstanding)
	w.Family("streamd_sessions_rejected_total", "counter", "Sessions turned away before reaching an engine, by reason.")
	reasons := make([]string, 0, len(ps.SessionsRejected))
	for reason := range ps.SessionsRejected {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		w.Sample("streamd_sessions_rejected_total", ps.SessionsRejected[reason], "reason", reason)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.Gauge("streamd_goroutines", "Goroutines in the process.", runtime.NumGoroutine())
	w.Gauge("streamd_heap_alloc_bytes", "Heap bytes allocated and in use.", ms.HeapAlloc)
	w.Family("streamd_build_info", "gauge", "Build identity of the running server (constant 1).")
	w.Sample("streamd_build_info", 1, "version", buildinfo.Version())
	w.Family("streamd_probe_kernel", "gauge", "Default probe kernel for soft-uni sessions, and the lanes its block scan runs on (constant 1).")
	w.Sample("streamd_probe_kernel", 1, "kernel", ps.ProbeKernel, "lanes", stream.ScanLanes())
	if ps.Checkpoints.Enabled {
		writeCheckpointMetrics(w, ps.Checkpoints)
	}
}

func writeCheckpointMetrics(w *metrics.Writer, cs CheckpointStats) {
	w.Counter("streamd_checkpoints_written_total", "Durable snapshots written.", cs.Written)
	w.Counter("streamd_checkpoint_errors_total", "Snapshot attempts that failed.", cs.Errors)
	w.Counter("streamd_checkpoints_skipped_total", "Automatic snapshots skipped because a write was in flight.", cs.Skipped)
	age := float64(-1)
	if cs.LastUnixNanos > 0 {
		age = time.Since(time.Unix(0, cs.LastUnixNanos)).Seconds()
	}
	w.Gauge("streamd_checkpoint_age_seconds", "Seconds since the newest snapshot was cut (-1: none yet).", age)
	w.Gauge("streamd_checkpoint_last_bytes", "Encoded size of the newest snapshot.", cs.LastBytes)
	w.Gauge("streamd_checkpoint_last_duration_seconds", "Wall time the newest snapshot write took.", cs.LastDuration.Seconds())
	w.Counter("streamd_checkpoint_restores_total", "Snapshots restored into sessions at open.", cs.Restores)
	w.Counter("streamd_checkpoint_restored_tuples_total", "Window tuples installed by restores.", cs.RestoredTuples)
}

// writeTenantMetrics emits the admission controller's per-tenant
// accounting.
func writeTenantMetrics(w *metrics.Writer, tenants []admission.TenantUsage, throttledTotal, evicted uint64) {
	w.Gauge("streamd_tenants_live", "Distinct tenant entries currently accounted.", len(tenants))
	w.Counter("streamd_tenants_evicted_total", "Idle zero-usage tenant entries swept from the accounting table.", evicted)
	perTenant := func(name, kind, help string, value func(admission.TenantUsage) any) {
		w.Family(name, kind, help)
		for _, t := range tenants {
			w.Sample(name, value(t), "tenant", t.Tenant)
		}
	}
	perTenant("streamd_tenant_sessions", "gauge", "Live sessions per tenant.", func(t admission.TenantUsage) any { return t.Sessions })
	perTenant("streamd_tenant_window_bytes", "gauge", "Aggregate window memory accounted per tenant (2*window*16 bytes per session).", func(t admission.TenantUsage) any { return t.WindowBytes })
	perTenant("streamd_tenant_sessions_admitted_total", "counter", "Sessions ever admitted per tenant.", func(t admission.TenantUsage) any { return t.Admitted })
	perTenant("streamd_tenant_throttled_total", "counter", "Batch credits withheld by rate shaping, per tenant.", func(t admission.TenantUsage) any { return t.Throttled })
	w.Family("streamd_tenant_batch_seconds", "histogram", "Time from a Batch frame's decode to the engine accepting it, per tenant.")
	for _, t := range tenants {
		w.Histogram("streamd_tenant_batch_seconds", t.BatchSeconds, "tenant", t.Tenant)
	}
	w.Counter("streamd_throttled_total", "Batch credits withheld by rate shaping, server-wide.", throttledTotal)
}

// writeSessionMetrics emits the per-session families, one row per session
// in the order given (Server.Metrics sorts by session ID).
func writeSessionMetrics(w *metrics.Writer, sessions []SessionMetrics) {
	labels := func(m SessionMetrics) []string {
		return []string{"session", strconv.FormatUint(m.ID, 10), "engine", m.Engine.String()}
	}
	perSession := func(name, kind, help string, value func(SessionMetrics) any) {
		w.Family(name, kind, help)
		for _, m := range sessions {
			w.Sample(name, value(m), labels(m)...)
		}
	}
	perSession("streamd_session_tuples_in_total", "counter", "Tuples ingested per session.", func(m SessionMetrics) any { return m.TuplesIn })
	perSession("streamd_session_batches_in_total", "counter", "Batch frames ingested per session.", func(m SessionMetrics) any { return m.BatchesIn })
	perSession("streamd_session_results_out_total", "counter", "Join results streamed back per session.", func(m SessionMetrics) any { return m.ResultsOut })
	// Histogram-style sum/count pair: sum/count = mean results coalesced
	// per Results frame, the emit-path batching the slab pipeline feeds.
	perSession("streamd_session_result_frame_tuples_sum", "counter", "Join results carried in Results frames per session (pairs with _count for mean frame size).", func(m SessionMetrics) any { return m.ResultsOut })
	perSession("streamd_session_result_frame_tuples_count", "counter", "Results frames written per session.", func(m SessionMetrics) any { return m.ResultFrames })
	perSession("streamd_session_open", "gauge", "Whether the session is live (1) or closed (0).", func(m SessionMetrics) any { return m.Open })
	perSession("streamd_session_backlog", "gauge", "Undelivered engine results queued per live session.", func(m SessionMetrics) any { return m.Backlog })
	w.Family("streamd_session_probe_kernel", "gauge", "Concrete probe kernel the session's engine runs (constant 1).")
	for _, m := range sessions {
		if m.Kernel != "" { // engines without probe kernels have no row
			w.Sample("streamd_session_probe_kernel", 1, append(labels(m), "kernel", m.Kernel)...)
		}
	}
}
