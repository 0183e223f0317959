package experiments

import (
	"fmt"

	"accelstream/internal/hwjoin"
	"accelstream/internal/stream"
)

// LatencyByArchitecture is an extension experiment following Section III's
// narrative arc: the classic handshake join (bi-flow) cannot finish a
// tuple's result set until later arrivals push it through the chain; the
// low-latency handshake join [36] replicates tuples ahead of computation
// and completes in ≈N hops + one sub-window scan; SplitJoin (uni-flow)
// drops the chain entirely and completes in ≈log₂(N) network stages + one
// sub-window scan. The measurement: preload the windows, plant one match
// per chain segment, inject one probe, and count cycles to quiescence —
// plus how many of the planted matches were actually found.
func LatencyByArchitecture(opt Options) (Figure, error) {
	fig := Figure{
		ID:     "llhs",
		Title:  "Extension: probe completion by architecture (8 cores, W=2^10)",
		XLabel: "architecture (1=bi-flow, 2=low-latency bi-flow, 3=uni-flow)",
		YLabel: "cycles to completion",
	}
	const (
		cores  = 8
		window = 1 << 10
	)
	s := make([]stream.Tuple, window)
	for i := range s {
		s[i] = stream.Tuple{Key: 0xE0000000 + uint32(i), Seq: uint64(i)}
	}
	matches := 0
	for i := 0; i < window; i += window / cores {
		s[i].Key = 42
		matches++
	}
	probeGen := func() func() (hwjoin.Flit, bool) {
		fired := false
		return func() (hwjoin.Flit, bool) {
			if fired {
				return hwjoin.Flit{}, false
			}
			fired = true
			return hwjoin.TupleFlit(stream.SideR, stream.Tuple{Key: 42}), true
		}
	}

	// Both hardware designs have these three methods, so one run serves
	// all three architectures.
	type design interface {
		Preload(r, s []stream.Tuple) error
		RunToQuiescence(maxCycles uint64) (uint64, error)
		Sink() *hwjoin.Sink
	}
	variants := []struct {
		name  string
		build func() (design, error)
	}{
		{"bi-flow (handshake join)", func() (design, error) {
			return hwjoin.BuildBiFlow(hwjoin.BiFlowConfig{NumCores: cores, WindowSize: window}, false, probeGen())
		}},
		{"low-latency bi-flow", func() (design, error) {
			return hwjoin.BuildBiFlow(hwjoin.BiFlowConfig{NumCores: cores, WindowSize: window, FastForward: true}, false, probeGen())
		}},
		{"uni-flow (SplitJoin)", func() (design, error) {
			return hwjoin.BuildUniFlow(hwjoin.UniFlowConfig{NumCores: cores, WindowSize: window, Network: hwjoin.Scalable}, false, probeGen())
		}},
	}
	cyclesSeries := Series{Label: "cycles to quiescence"}
	foundSeries := Series{Label: fmt.Sprintf("matches found (of %d planted)", matches)}
	for i, v := range variants {
		d, err := v.build()
		if err == nil {
			err = d.Preload(nil, s)
		}
		var cycles uint64
		if err == nil {
			cycles, err = d.RunToQuiescence(10_000_000)
		}
		if err != nil {
			return Figure{}, fmt.Errorf("experiments: %s: %w", v.name, err)
		}
		cyclesSeries.Points = append(cyclesSeries.Points, Point{X: float64(i + 1), Y: float64(cycles)})
		foundSeries.Points = append(foundSeries.Points, Point{X: float64(i + 1), Y: float64(d.Sink().Drained())})
		fig.Notes = append(fig.Notes, fmt.Sprintf("%d = %s", i+1, v.name))
	}
	fig.Series = append(fig.Series, cyclesSeries, foundSeries)
	fig.Notes = append(fig.Notes,
		"the classic chain quiesces quickly but finds only the entry core's matches (the rest wait for future traffic); the low-latency variant completes the whole window in N hops + one scan; uni-flow needs only log₂(N) network stages + one (1-cycle-per-read) scan")
	return fig, nil
}
