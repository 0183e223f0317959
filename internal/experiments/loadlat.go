package experiments

import (
	"fmt"
	"time"

	"accelstream/internal/stream"
)

// LoadLatency is an extension experiment: the latency-versus-offered-load
// curve of the software SplitJoin. At low utilization, latency is the bare
// processing time; as the load approaches the engine's saturation
// throughput, queueing dominates and latency climbs steeply — context for
// why Figure 16's saturated-load numbers sit orders of magnitude above the
// engine's quiesced probe latency. The backlog each probe queues behind is
// reported beside the latency: it is a count, so it shows the queueing
// that the wall-clock latency shows only through the host's noise.
func LoadLatency(opt Options) (Figure, error) {
	fig := Figure{
		ID:     "loadlat",
		Title:  "Extension: software latency vs offered load (SplitJoin)",
		XLabel: "offered load (% of max throughput)",
		YLabel: "latency (µs) · backlog (tuples)",
	}
	cores := 8
	window := 1 << 15
	// Each load point's probe phase lasts about a fixed time, however
	// fast the load: at least 16 probes (8 quick), and as many as the
	// offered rate pushes in the phase. A fixed probe count made the 25 %
	// point last ~10 ms, where one scheduler hiccup moved its averaged
	// backlog by tens of percent.
	probes, phase := 16, 100*time.Millisecond
	if opt.Quick {
		probes, phase = 8, 40*time.Millisecond
	}

	// Saturation throughput first: the best of three runs, since every
	// load point is a share of it and one slow run would shift them all.
	// Each run lasts a fixed time rather than a fixed tuple count: a few
	// thousand tuples take tens of milliseconds, where one scheduler hiccup
	// moves the rate, and so every load point, by tens of percent.
	saturate := 250 * time.Millisecond
	if opt.Quick {
		saturate = 100 * time.Millisecond
	}
	var maxMtps float64
	for range 3 {
		mtps, _, err := swThroughput(cores, window, 0, 2048, saturate, stream.KernelScan, opt)
		if err != nil {
			return Figure{}, err
		}
		maxMtps = max(maxMtps, mtps)
	}
	maxRate := maxMtps * 1e6

	lat := Series{Label: fmt.Sprintf("%d cores, W=2^%d", cores, log2(window))}
	backlog := Series{Label: "backlog at probe push (tuples)"}
	// The last point offers twice the measured capacity: sustained
	// overload, where the engine's bounded queues stay full and every
	// probe rides a maximal backlog.
	for _, pct := range []int{25, 50, 75, 90, 200} {
		rate := maxRate * float64(pct) / 100
		n := max(probes, int(phase.Seconds()*rate)/(64+1))
		l, b, err := swProbeLatency(cores, window, n, 64, rate, opt)
		if err != nil {
			return Figure{}, err
		}
		lat.Points = append(lat.Points, Point{X: float64(pct), Y: float64(l.Microseconds())})
		backlog.Points = append(backlog.Points, Point{X: float64(pct), Y: b})
	}
	fig.Series = append(fig.Series, lat, backlog)
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("saturation throughput on this host (best of 3 runs of %v): %.4f M tuples/s; the climb toward 90%% load is queueing delay", saturate, maxMtps),
		fmt.Sprintf("backlog = Injected − Processed/cores sampled just before each probe push, averaged over a probe phase of about %v per load point", phase))
	return fig, nil
}
