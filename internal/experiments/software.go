package experiments

import (
	"fmt"
	"sync"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/softjoin"
	"accelstream/internal/stream"
	"accelstream/internal/workload"
)

// probeKeyBase marks probe tuples; filler traffic stays outside this
// range so the drain goroutines can spot probe results cheaply.
const probeKeyBase = 0x40000000

// startUniFlow builds a software uni-flow engine, preloads it when r or s
// is non-empty, starts it, and drains Results() on one goroutine that
// hands each result to seen (nil discards it). stop closes the engine and
// waits for the drain; closing the engine first is harmless, so a runner
// can end its timed region at e.Close() and still defer stop.
func startUniFlow(cfg softjoin.Config, r, s []stream.Tuple, seen func(stream.Result)) (e *softjoin.UniFlow, stop func() error, err error) {
	e, err = softjoin.NewUniFlow(cfg)
	if err != nil {
		return nil, nil, err
	}
	if len(r) > 0 || len(s) > 0 {
		if err := e.Preload(r, s); err != nil {
			return nil, nil, err
		}
	}
	if err := e.Start(); err != nil {
		return nil, nil, err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for res := range e.Results() {
			if seen != nil {
				seen(res)
			}
		}
	}()
	return e, func() error {
		err := e.Close()
		<-drained
		return err
	}, nil
}

// Fig14d regenerates Figure 14d: software uni-flow (SplitJoin) throughput
// versus window size for 16 and 28 join cores. Absolute numbers reflect
// this host, not the paper's 32-core Xeon testbed; the shape (inverse in W,
// increasing in cores) is the reproduction target.
//
// The scan kernel is pinned here, in Fig16 and in loadlat: the paper's
// figures characterize the full-window-compare data path (throughput ∝
// cores/window), which the hash index deliberately short-circuits — the
// kernel comparison lives in the "software" baseline figure instead. The
// load-latency curve also needs an engine one paced producer can
// saturate, and the hash kernel's saturation lies beyond that.
func Fig14d(opt Options) (Figure, error) {
	fig := Figure{
		ID:     "fig14d",
		Title:  "Uni-flow software throughput vs window size (SplitJoin)",
		XLabel: "window size (2^x)",
		YLabel: "million tuples/s",
	}
	windows := []int{1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20, 1 << 21, 1 << 22, 1 << 23}
	if opt.Quick {
		windows = []int{1 << 16, 1 << 18, 1 << 20}
	}
	for _, cores := range []int{16, 28} {
		s := Series{Label: fmt.Sprintf("JCs: %d", cores)}
		for _, window := range windows {
			// Size the run so each point costs roughly constant wall time:
			// per-tuple work is ~window comparisons spread over the cores.
			measure := int(1 << 26 / window * 4)
			if measure < 512 {
				measure = 512
			}
			if opt.Quick {
				measure /= 4
				if measure < 256 {
					measure = 256
				}
			}
			mtps, _, err := swThroughput(cores, window, 0, measure, stream.KernelScan, opt)
			if err != nil {
				return Figure{}, err
			}
			s.Points = append(s.Points, Point{X: float64(log2(window)), Y: mtps})
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes,
		"absolute values depend on this host's core count and memory; the paper's shape: throughput ∝ cores/window")
	return fig, nil
}

// swProbeLatency measures the software engine's per-tuple latency under
// load: probes with planted matches ride a stream of burst-tuple
// background batches, and latency is the wall time from a probe's push to
// its result arriving at the gatherer. Rate 0 pushes flat out; a positive
// rate paces the offered load in tuples/s. It also returns the mean
// engine backlog just before each probe push, Injected() − Processed()/cores:
// the tuples a probe queues behind.
func swProbeLatency(cores, window, probes, burst int, rate float64, opt Options) (time.Duration, float64, error) {
	r, s, err := workload.WindowFill(workload.Spec{Seed: opt.Seed, Dist: workload.Disjoint}, window)
	if err != nil {
		return 0, 0, err
	}
	// Plant one match per probe key at scattered positions. Probe keys use
	// a range disjoint from the workload's.
	for i := 0; i < probes; i++ {
		s[(i*2048+window/3)%window].Key = probeKeyBase + uint32(i)
	}
	pushTimes := make([]time.Time, probes)
	arrivals := make([]time.Duration, probes)
	var mu sync.Mutex
	e, stop, err := startUniFlow(softjoin.Config{NumCores: cores, WindowSize: window, ProbeKernel: stream.KernelScan}, r, s, func(res stream.Result) {
		if res.R.Key >= probeKeyBase && res.R.Key < probeKeyBase+uint32(probes) {
			i := int(res.R.Key - probeKeyBase)
			mu.Lock()
			if arrivals[i] == 0 {
				arrivals[i] = time.Since(pushTimes[i])
			}
			mu.Unlock()
		}
	})
	if err != nil {
		return 0, 0, err
	}
	defer stop()

	var pacer *workload.Pacer
	if rate > 0 {
		if pacer, err = workload.NewPacer(rate); err != nil {
			return 0, 0, err
		}
	}
	next, err := workload.Alternating(workload.Spec{Seed: opt.Seed + 3, Dist: workload.Disjoint})
	if err != nil {
		return 0, 0, err
	}
	// Interleave: a burst of background traffic, then one probe.
	batch := make([]core.Input, burst) // reused: PushBatch copies
	var backlog float64
	for i := 0; i < probes; i++ {
		for j := range batch {
			batch[j] = next()
		}
		if pacer != nil {
			pacer.WaitBatch(burst)
		}
		e.PushBatch(batch)
		if pacer != nil {
			pacer.WaitBatch(1)
		}
		backlog += float64(e.Injected()) - float64(e.Processed())/float64(cores)
		mu.Lock()
		pushTimes[i] = time.Now()
		mu.Unlock()
		e.PushBatch([]core.Input{{Side: stream.SideR, Tuple: stream.Tuple{Key: probeKeyBase + uint32(i)}}})
	}
	if err := stop(); err != nil {
		return 0, 0, err
	}

	var sum time.Duration
	n := 0
	for _, a := range arrivals {
		if a > 0 {
			sum += a
			n++
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("experiments: no probe results observed at rate %.0f", rate)
	}
	return sum / time.Duration(n), backlog / float64(probes), nil
}

// Fig16 regenerates Figure 16: software uni-flow latency versus the number
// of join cores for windows 2^17–2^19, measured under sustained load.
func Fig16(opt Options) (Figure, error) {
	fig := Figure{
		ID:     "fig16",
		Title:  "Uni-flow software latency vs join cores (under load)",
		XLabel: "join cores",
		YLabel: "latency (ms)",
	}
	coresSweep := []int{12, 16, 20, 24, 28, 32}
	probes, burst := 12, 512
	if opt.Quick {
		coresSweep = []int{12, 20, 28}
		probes, burst = 8, 64
	}
	for _, window := range []int{1 << 17, 1 << 18, 1 << 19} {
		s := Series{Label: fmt.Sprintf("W=2^%d", log2(window))}
		for _, cores := range coresSweep {
			lat, _, err := swProbeLatency(cores, window, probes, burst, 0, opt)
			if err != nil {
				return Figure{}, err
			}
			s.Points = append(s.Points, Point{X: float64(cores), Y: float64(lat.Microseconds()) / 1000})
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes,
		"latency grows with the window and shrinks with more cores; absolute values depend on this host")
	return fig, nil
}
