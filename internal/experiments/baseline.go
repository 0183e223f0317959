package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/softjoin"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
	"accelstream/internal/workload"
)

// The "software" experiment is the perf baseline for the software data
// path, tracked in BENCH_software.json from PR 3 onward. It measures the
// whole ingest→probe→emit pipeline the way the network server exercises
// it, at the selectivities where result emission (not probing) dominates —
// the regime in which the paper's FPGA designs win because results leave
// the join cores in bursts over a wide bus instead of one hand-off per
// match (Figs. 10–13).

// swSelectivitySpec returns the workload spec for a target per-comparison
// match probability. selectivity 0 means the disjoint (never-matching)
// saturation workload.
func swSelectivitySpec(seed int64, selectivity float64) workload.Spec {
	if selectivity == 0 {
		return workload.Spec{Seed: seed, Dist: workload.Disjoint}
	}
	return workload.Spec{Seed: seed, Dist: workload.Uniform, KeyDomain: int(1 / selectivity)}
}

// swSelectivityRun measures the software uni-flow engine under a saturated
// stream with the given per-comparison match probability, returning the
// ingest rate (million tuples/s) and the result emission rate (million
// results/s) over the timed region.
func swSelectivityRun(cores, window int, selectivity float64, measureTuples int, kernel stream.ProbeKernel, opt Options) (inMtps, outMrps float64, err error) {
	e, err := softjoin.NewUniFlow(softjoin.Config{NumCores: cores, WindowSize: window, ProbeKernel: kernel})
	if err != nil {
		return 0, 0, err
	}
	spec := swSelectivitySpec(opt.Seed, selectivity)
	r, s, err := workload.WindowFill(spec, window)
	if err != nil {
		return 0, 0, err
	}
	if err := e.Preload(r, s); err != nil {
		return 0, 0, err
	}
	if err := e.Start(); err != nil {
		return 0, 0, err
	}
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		for range e.Results() {
		}
	}()

	spec.Seed = opt.Seed + 7
	next, err := workload.Alternating(spec)
	if err != nil {
		return 0, 0, err
	}
	const batchSize = 256
	// One reusable batch buffer: PushBatch does not retain the slice.
	batch := make([]core.Input, batchSize)
	fill := func() {
		for i := range batch {
			batch[i] = next()
		}
	}
	// Warm the pipeline (and the slab pools) before timing.
	warmBatches := measureTuples / batchSize / 10
	if warmBatches < 2 {
		warmBatches = 2
	}
	for i := 0; i < warmBatches; i++ {
		fill()
		e.PushBatch(batch)
	}
	collected0 := e.Collected()
	start := time.Now()
	pushed := 0
	for pushed < measureTuples {
		fill()
		e.PushBatch(batch)
		pushed += batchSize
	}
	// Close waits for the pipeline to finish the pushed load, so the
	// measurement covers processing, not queue absorption.
	if err := e.Close(); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	drainWG.Wait()
	results := e.Collected() - collected0
	return float64(pushed) / elapsed.Seconds() / 1e6,
		float64(results) / elapsed.Seconds() / 1e6, nil
}

// decodePushMicro measures the server's per-frame hot path — decode a
// Batch frame payload, hand the batch to the engine — exactly as the
// server session's ingest performs it, returning ns per tuple and heap
// allocations per batch frame.
func decodePushMicro(batchSize int, iters int, opt Options) (nsPerTuple, allocsPerBatch float64, err error) {
	e, err := softjoin.NewUniFlow(softjoin.Config{NumCores: 4, WindowSize: 1 << 12})
	if err != nil {
		return 0, 0, err
	}
	r, s, err := workload.WindowFill(workload.Spec{Seed: opt.Seed, Dist: workload.Disjoint}, 1<<12)
	if err != nil {
		return 0, 0, err
	}
	if err := e.Preload(r, s); err != nil {
		return 0, 0, err
	}
	if err := e.Start(); err != nil {
		return 0, 0, err
	}
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		for range e.Results() {
		}
	}()

	// Encode one representative Batch frame and keep its payload.
	next, err := workload.Alternating(workload.Spec{Seed: opt.Seed + 11, Dist: workload.Disjoint})
	if err != nil {
		return 0, 0, err
	}
	batch := make([]core.Input, batchSize)
	for i := range batch {
		batch[i] = next()
	}
	var buf bytes.Buffer
	if err := wire.NewWriter(&buf).WriteBatch(1, batch); err != nil {
		return 0, 0, err
	}
	frame, err := wire.NewReader(&buf).ReadFrame()
	if err != nil {
		return 0, 0, err
	}
	payload := append([]byte(nil), frame.Payload...)

	// One pooled decode per frame, exactly as the session's ingest
	// performs it: the decode buffer is handed back every iteration, and PushBatch
	// does not retain it, so steady-state frames decode allocation-free.
	var decodeBuf []core.Input
	step := func() error {
		_, decoded, err := wire.DecodeBatchInto(payload, 0, decodeBuf)
		if err != nil {
			return err
		}
		e.PushBatch(decoded)
		decodeBuf = decoded
		return nil
	}
	for i := 0; i < 64; i++ { // warm the pipeline and pools
		if err := step(); err != nil {
			return 0, 0, err
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := step(); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err := e.Close(); err != nil {
		return 0, 0, err
	}
	drainWG.Wait()
	return float64(elapsed.Nanoseconds()) / float64(iters*batchSize),
		float64(m1.Mallocs-m0.Mallocs) / float64(iters), nil
}

// SoftwareBaseline regenerates the software data-path baseline: uni-flow
// throughput versus match selectivity per probe kernel (the emit-path
// stress), and the decode→push micro measurements of the server's
// per-frame hot path. By default both probe kernels are swept — hash
// index and block scan — so the figure records the kernel speedup;
// Options.ProbeKernel restricts the sweep to one kernel.
func SoftwareBaseline(opt Options) (sel, micro Figure, err error) {
	const (
		cores  = 8
		window = 1 << 16
	)
	sel = Figure{
		ID:     "software",
		Title:  fmt.Sprintf("Software uni-flow data path (%d cores, W=2^16): throughput vs selectivity, per probe kernel", cores),
		XLabel: "match selectivity",
		YLabel: "million/s",
	}
	resultsBudget := 4 << 20
	maxTuples := 1 << 18
	if opt.Quick {
		resultsBudget /= 4
		maxTuples /= 4
	}
	kernels := []stream.ProbeKernel{stream.KernelHash, stream.KernelScan}
	if opt.ProbeKernel != stream.KernelAuto {
		kernels = []stream.ProbeKernel{opt.ProbeKernel}
	}
	for _, kernel := range kernels {
		in := Series{Label: fmt.Sprintf("ingest Mtuples/s [%s]", kernel)}
		out := Series{Label: fmt.Sprintf("results M/s [%s]", kernel)}
		for _, s := range []float64{0, 1e-4, 1e-3, 1e-2} {
			measure := maxTuples
			if s > 0 {
				// Size each point by its expected result volume so runtime
				// stays roughly constant across selectivities.
				measure = int(float64(resultsBudget) / (float64(window) * s))
				if measure > maxTuples {
					measure = maxTuples
				}
				if measure < 8192 {
					measure = 8192
				}
			}
			inM, outM, err := swSelectivityRun(cores, window, s, measure, kernel, opt)
			if err != nil {
				return Figure{}, Figure{}, err
			}
			in.Points = append(in.Points, Point{X: s, Y: inM})
			out.Points = append(out.Points, Point{X: s, Y: outM})
		}
		sel.Series = append(sel.Series, in, out)
	}
	sel.Notes = append(sel.Notes,
		"at selectivity ≥1e-3 the result path dominates; absolute values depend on this host",
		"the hash kernel probes only its key's chain (O(matches)); the scan kernel sweeps the whole window per probe")

	micro = Figure{
		ID:     "software-micro",
		Title:  "Server decode→push hot path (soft-uni, 4 cores, W=2^12)",
		XLabel: "batch size (tuples)",
		YLabel: "ns/tuple, allocs/batch",
	}
	iters := 4096
	if opt.Quick {
		iters = 1024
	}
	ns := Series{Label: "decode+push ns/tuple"}
	al := Series{Label: "decode+push allocs/batch"}
	for _, bs := range []int{64, 256, 1024} {
		n, a, err := decodePushMicro(bs, iters, opt)
		if err != nil {
			return Figure{}, Figure{}, err
		}
		ns.Points = append(ns.Points, Point{X: float64(bs), Y: n})
		al.Points = append(al.Points, Point{X: float64(bs), Y: a})
	}
	micro.Series = []Series{ns, al}
	micro.Notes = append(micro.Notes,
		"allocs/batch counts every heap allocation the decode→probe pipeline makes per Batch frame (all goroutines)")
	return sel, micro, nil
}
