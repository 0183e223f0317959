package main

import "slices"

// metricDef names one reported metric. The lists below are the single
// catalogue: BENCHMARK.json repeats them (a test keeps the two in step)
// and every emitted value takes its unit from here.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a user of the service sees, per workload.
var endToEnd = []metricDef{
	{"ingest_tuples_per_s", "tuples/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"cpu_s_per_mtuple", "cpu_s/Mtuple", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer is where the time goes, named <module>.<metric>. README.md has
// the glossary and which end-to-end metric each one should move.
var perLayer = []metricDef{
	// Isolated timers: the workload's own batches through one layer alone.
	{"wire.encode_batch_ns_per_tuple", "ns/tuple", "lower"},
	{"wire.decode_batch_ns_per_tuple", "ns/tuple", "lower"},
	{"wire.encode_results_ns_per_result", "ns/result", "lower"},
	{"wire.decode_results_ns_per_result", "ns/result", "lower"},
	{"wire.bytes_per_tuple", "bytes", "lower"},
	{"wire.bytes_per_result", "bytes", "lower"},
	{"wire.allocs_per_batch", "count", "lower"},
	{"stream.store_ns_per_tuple", "ns/tuple", "lower"},
	{"stream.probe_ns_per_tuple", "ns/tuple", "lower"},
	{"softjoin.push_ns_per_tuple", "ns/tuple", "lower"},
	{"softjoin.results_per_s", "results/s", "higher"},
	{"softjoin.comparisons_per_tuple", "count", "lower"},
	{"softjoin.store_skew", "ratio", "lower"},
	{"server.null_engine_ns_per_tuple", "ns/tuple", "lower"},
	{"server.result_path_ns_per_result", "ns/result", "lower"},
	{"shard.router_ns_per_tuple", "ns/tuple", "lower"},
	{"admission.admit_ns", "ns", "lower"},
	{"admission.throttle_ns_per_batch", "ns/batch", "lower"},
	{"checkpoint.snapshot_ms", "ms", "lower"},
	{"checkpoint.state_bytes", "bytes", "lower"},
	{"harness.loopback_mb_per_s", "MiB/s", "higher"},
	{"harness.gen_headroom", "ratio", "higher"},
	{"harness.nproc", "count", "higher"},
	{"harness.gomaxprocs", "count", "higher"},
	{"harness.build_s", "s", "lower"},
	// Counts and waits of an untraced run through the real daemons.
	{"client.results_per_tuple", "count", "lower"},
	{"client.send_blocked_share", "share", "higher"},
	{"client.drain_ms", "ms", "lower"},
	{"client.latency_p99_us", "us", "lower"},
	{"client.latency_p999_us", "us", "lower"},
	{"client.cpu_ns_per_tuple", "ns/tuple", "lower"},
	{"server.batch_rtt_avg_us", "us", "lower"},
	{"server.batch_rtt_max_us", "us", "lower"},
	{"server.result_frame_fill", "count", "higher"},
	{"streamd.cpu_ns_per_tuple", "ns/tuple", "lower"},
	{"streamd.peak_rss_mb", "MiB", "lower"},
	{"streamshard.cpu_ns_per_tuple", "ns/tuple", "lower"},
	{"streamshard.peak_rss_mb", "MiB", "lower"},
	{"shard.probe_fanout", "ratio", "lower"},
	{"shard.result_skew", "ratio", "lower"},
	{"shard.batches_dropped", "count", "lower"},
	{"shard.redials", "count", "lower"},
	{"harness.pacer_lag_p99_us", "us", "lower"},
	// The traced run.
	{"trace.marker_p50_us", "us", "lower"},
	{"trace.client_send_p50_us", "us", "lower"},
	{"trace.ingress_p50_us", "us", "lower"},
	{"trace.engine_p50_us", "us", "lower"},
	{"trace.egress_p50_us", "us", "lower"},
	{"trace.marker_p99_us", "us", "lower"},
	{"trace.client_send_p99_us", "us", "lower"},
	{"trace.ingress_p99_us", "us", "lower"},
	{"trace.engine_p99_us", "us", "lower"},
	{"trace.egress_p99_us", "us", "lower"},
	{"trace.conn_read_wait_share", "share", "higher"},
	{"trace.conn_write_share", "share", "lower"},
	{"trace.engine_push_share", "share", "lower"},
	{"trace.overhead_ratio", "ratio", "higher"},
	{"trace.hosting_ratio", "ratio", "higher"},
}

// The box this benchmark runs on is a small shared VM. Other tenants slow
// it down in bursts of seconds, sometimes minutes, and only ever slow it
// down, so the timed metrics are cut into half-second slices and read off
// the quiet end of the slices' distribution instead of the middle: that
// is what the service does when left alone, and it is two to three times
// steadier from run to run than the median (README.md has the numbers).

// quietRate is the ingest rate of a throughput phase: the 90th percentile
// of its slice rates.
func quietRate(rates []float64) float64 { return percentile(rates, 90) }

// quietLatency is the median marker latency of a latency phase: that of
// its quietest time slice. Of the three timed metrics latency feels the
// box most (a wake-up across vCPUs costs what the host lets it cost), and
// the lowest slice median was the steadiest reading of it on every
// workload, in quiet and in busy periods alike.
func quietLatency(sliceMedians []float64) float64 {
	if len(sliceMedians) == 0 {
		return 0
	}
	return slices.Min(sliceMedians)
}

// e2eMetrics derives the end-to-end metrics of a measured run.
func e2eMetrics(r *e2eResult) metrics {
	var rss float64
	for _, v := range r.peakRSS {
		rss += v
	}
	return metrics{
		"ingest_tuples_per_s": quietRate(r.sliceRates),
		"latency_p50_us":      quietLatency(slicePercentiles(r.markers.latencies, r.latSeconds, latSlices, 50)),
		"cpu_s_per_mtuple":    percentile(r.sliceCPU, 10),
		"peak_rss_mb":         rss,
		"setup_s":             median(r.setupSeconds),
	}
}

// countMetrics derives the per-layer counts and waits of an untraced run.
func countMetrics(r *e2eResult) metrics {
	perTuple := func(role string) float64 {
		return r.cpuSeconds[role] * 1e9 / float64(r.tputTuples)
	}
	return metrics{
		"client.send_blocked_share":    r.blockedSeconds / r.tputSeconds,
		"client.drain_ms":              r.drainMillis,
		"client.latency_p99_us":        percentile(values(r.markers.latencies), 99),
		"client.latency_p999_us":       percentile(values(r.markers.latencies), 99.9),
		"client.cpu_ns_per_tuple":      perTuple("client"),
		"server.batch_rtt_avg_us":      r.rttAvgUs,
		"server.batch_rtt_max_us":      r.rttMaxUs,
		"server.result_frame_fill":     r.frameFill,
		"streamd.cpu_ns_per_tuple":     perTuple("streamd"),
		"streamd.peak_rss_mb":          r.peakRSS["streamd"],
		"streamshard.cpu_ns_per_tuple": perTuple("streamshard"),
		"streamshard.peak_rss_mb":      r.peakRSS["streamshard"],
		"shard.probe_fanout":           r.probeFanout,
		"shard.result_skew":            r.resultSkew,
		"shard.batches_dropped":        r.shardDropped,
		"shard.redials":                r.shardRedials,
		"harness.pacer_lag_p99_us":     percentile(r.pacerLagUs, 99),
	}
}

// traceMetrics derives the traced run's metrics: the stage breakdown of a
// typical marker (those between the 40th and 60th percentile of total
// latency) and of a slow one (the slowest 2%), and who waited for whom.
//
// The traced run hosts the streamd tier inside the harness, which by
// itself changes throughput; hosted is the same hosting with tracing off.
// overhead_ratio (traced / hosted) is therefore what the instrumentation
// costs, and hosting_ratio (hosted / real daemons) how far the hosted
// topology is from the real one.
func traceMetrics(spans []span, traced, hosted, real *e2eResult) metrics {
	m := metrics{
		"trace.conn_read_wait_share": traced.trace.connReadWait,
		"trace.conn_write_share":     traced.trace.connWrite,
		"trace.engine_push_share":    traced.trace.enginePush,
		"trace.overhead_ratio":       quietRate(traced.sliceRates) / quietRate(hosted.sliceRates),
		"trace.hosting_ratio":        quietRate(hosted.sliceRates) / quietRate(real.sliceRates),
	}
	for _, band := range []struct {
		tag    string
		lo, hi float64
	}{{"p50", 40, 60}, {"p99", 98, 100}} {
		total, perStage := stageBreakdown(spans, band.lo, band.hi)
		m["trace.marker_"+band.tag+"_us"] = total
		for i, name := range stages {
			m["trace."+name+"_"+band.tag+"_us"] = perStage[i]
		}
	}
	return m
}
