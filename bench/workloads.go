package main

import (
	"fmt"

	"accelstream"
	"accelstream/internal/workload"
)

// spec is one benchmark workload: a topology, a probe kernel, a key
// distribution and a batch shape. Every field that changes what the
// service does per tuple is here; nothing else differs between workloads.
type spec struct {
	name string
	why  string
	// sharded routes the session through streamshard over two streamd;
	// otherwise the client talks to one streamd.
	sharded bool
	// scan starts the streamd tier with -probe-kernel scan; otherwise the
	// sessions resolve to the hash kernel.
	scan bool
	dist workload.KeyDist
	// domain is the number of distinct keys per stream; with a uniform
	// distribution a probe meets window/domain matches on average.
	domain int
	batch  int
	// window is the per-stream window the client asks for (the global
	// window when sharded).
	window int
	// cores is the session's engine parallelism (per shard when sharded).
	cores int
	// rate is the fixed offered load of the open-loop latency phase, in
	// tuples/s; it sits well under the workload's saturated throughput.
	rate int
	// markEvery plants a latency marker on every markEvery-th batch of the
	// latency phase, chosen so each workload yields a few thousand samples.
	markEvery int
}

// shards is the streamd count behind streamshard on sharded workloads.
const shards = 2

var workloads = []spec{
	{
		name: "ingest_small_batch",
		why:  "batch 64, no matches: per-batch cost rules (frame header, CRC, credit round trip, syscalls, session read loop); probe O(1), result path and router idle",
		dist: workload.Disjoint, domain: 1 << 16, batch: 64, window: 1 << 16, cores: 2,
		rate: 320_000, markEvery: 4,
	},
	{
		name: "result_heavy",
		why:  "batch 1024, about 10 results per tuple: slab emission, gatherer, result-frame coalescing, client decode and the Results channel rule; wire and server used server-to-client",
		dist: workload.Uniform, domain: (1 << 16) / 10, batch: 1024, window: 1 << 16, cores: 2,
		rate: 250_000, markEvery: 1,
	},
	{
		name: "probe_scan",
		why:  "scan kernel, no matches: BlockMask sweep of the window rules; wire, result path and router idle; the non-indexed path hash-only work must not move",
		scan: true,
		dist: workload.Disjoint, domain: 1 << 12, batch: 256, window: 1 << 12, cores: 2,
		rate: 100_000, markEvery: 1,
	},
	{
		name:    "sharded_mixed",
		why:     "client to streamshard to 2 streamd, about 1 result per tuple: extra hop, broadcast, per-shard credit queues and merged result channel; the production topology",
		sharded: true,
		dist:    workload.Uniform, domain: 1 << 16, batch: 512, window: 1 << 16, cores: 1,
		rate: 512_000, markEvery: 2,
	},
}

func findWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// session is the Open configuration the client sends for this workload.
func (w spec) session() accelstream.SessionConfig {
	return accelstream.SessionConfig{
		Engine: accelstream.EngineSoftwareUniFlow,
		Cores:  w.cores,
		Window: w.window,
	}
}

// kernel is the probe kernel the streamd tier is started with.
func (w spec) kernel() accelstream.ProbeKernel {
	if w.scan {
		return accelstream.KernelScan
	}
	return accelstream.KernelAuto
}

// resultsPerTuple is the expected selectivity, used only to size the
// canned result load of the isolated result-path timers.
func (w spec) resultsPerTuple() float64 {
	if w.dist == workload.Disjoint {
		return 0
	}
	return float64(w.window) / float64(w.domain)
}

// Marker keys live in their own range: uniform keys stay below 2^16 and
// disjoint keys are either below the domain (S) or carry the top bit (R),
// so a marker pair matches each other and nothing else.
const (
	markerBase = 0x40000000
	markerEnd  = 0x80000000
)

// isMarker reports whether key is a latency marker and which one.
func isMarker(key uint32) (id int, ok bool) {
	if key >= markerBase && key < markerEnd {
		return int(key - markerBase), true
	}
	return 0, false
}

// inputs is the pre-generated, pre-batched ring a run replays, so tuple
// generation stays outside every timed loop. The same seed gives the same
// ring.
type inputs struct {
	w       spec
	batches [][]accelstream.Input
}

func makeInputs(w spec, seed int64) (*inputs, error) {
	g, err := workload.NewGenerator(workload.Spec{Seed: seed, Dist: w.dist, KeyDomain: w.domain})
	if err != nil {
		return nil, err
	}
	n := (8*w.window + w.batch - 1) / w.batch
	in := &inputs{w: w, batches: make([][]accelstream.Input, n)}
	for i := range in.batches {
		in.batches[i] = g.Take(w.batch)
	}
	return in, nil
}

// ring returns the i-th batch of the endless replay.
func (in *inputs) ring(i int) []accelstream.Input {
	return in.batches[i%len(in.batches)]
}

// steadyResultsPerTuple is the workload's selectivity for this seed: the
// results the reference join produces for one replay of the ring once
// both windows hold the ring's tail, per tuple. A run sends a number of
// tuples that depends on how fast it went, so its own ratio moves in the
// third digit; this one repeats exactly, and every run's received count
// is checked against the same reference join for exactly what it sent.
func (in *inputs) steadyResultsPerTuple() (float64, error) {
	ref := newRefJoin(in.w.window, refStride(in.w), nil)
	var results, tuples uint64
	for pass := 0; pass < 2; pass++ { // the first pass fills the windows
		results, tuples = 0, 0
		for _, b := range in.batches {
			n, err := ref.pushAll(b)
			if err != nil {
				return 0, err
			}
			results += n
			tuples += uint64(len(b))
		}
	}
	return float64(results) / float64(tuples), nil
}

// latencyBatch returns batch j of a latency phase whose replay starts at
// ring position base. Every markEvery-th batch carries a marker: an S
// tuple with a key of its own replaces the batch's first tuple and an R
// probe with the same key its last, so the probe meets exactly one match
// and its result is the last thing the batch produces. marker is the
// marker the batch carries, or -1. dst is reused.
func (in *inputs) latencyBatch(dst []accelstream.Input, base, j int) (batch []accelstream.Input, marker int) {
	batch = append(dst[:0], in.ring(base+j)...)
	k := in.w.markEvery
	if j%k != k-1 {
		return batch, -1
	}
	m := j / k
	tuple := accelstream.Tuple{Key: markerBase + uint32(m), Val: uint32(m)}
	batch[0] = accelstream.Input{Side: accelstream.SideS, Tuple: tuple}
	batch[len(batch)-1] = accelstream.Input{Side: accelstream.SideR, Tuple: tuple}
	return batch, m
}
