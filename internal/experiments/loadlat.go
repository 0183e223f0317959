package experiments

import (
	"fmt"

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
	probes := 16
	if opt.Quick {
		probes = 8
	}

	// Saturation throughput first.
	measure := 4096
	if opt.Quick {
		measure = 2048
	}
	maxMtps, _, err := swThroughput(cores, window, 0, measure, stream.KernelScan, opt)
	if err != nil {
		return Figure{}, err
	}
	maxRate := maxMtps * 1e6

	lat := Series{Label: fmt.Sprintf("%d cores, W=2^%d", cores, log2(window))}
	backlog := Series{Label: "backlog at probe push (tuples)"}
	// The last point offers twice the measured capacity: sustained
	// overload, where the engine's bounded queues stay full and every
	// probe rides a maximal backlog.
	for _, pct := range []int{25, 50, 75, 90, 200} {
		l, b, err := swProbeLatency(cores, window, probes, 64, maxRate*float64(pct)/100, opt)
		if err != nil {
			return Figure{}, err
		}
		lat.Points = append(lat.Points, Point{X: float64(pct), Y: float64(l.Microseconds())})
		backlog.Points = append(backlog.Points, Point{X: float64(pct), Y: b})
	}
	fig.Series = append(fig.Series, lat, backlog)
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("saturation throughput on this host: %.4f M tuples/s; the climb toward 90%% load is queueing delay", maxMtps),
		"backlog = Injected − Processed/cores sampled just before each probe push, averaged over the probes")
	return fig, nil
}
