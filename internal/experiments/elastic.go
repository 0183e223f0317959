package experiments

import (
	"fmt"
	"time"

	"accelstream/internal/server"
	"accelstream/internal/shard"
	"accelstream/internal/workload"
)

// elasticParams sizes the elastic-resize measurement.
type elasticParams struct {
	window   int // global per-stream window (must divide by every layout)
	phase    int // tuples streamed in each fixed-layout phase
	batch    int // tuples per broadcast batch
	interval int // batches per rolling-throughput sample after a resume
}

// Elastic is an extension experiment for the Section VI elasticity story:
// a live 2-shard deployment is grown to 4 and then 8 shards mid-stream
// via the rebalance control plane (internal/shard), and the cost of
// each transition is measured — the pause while window state is
// re-sliced and installed, the tuples migrated, the ingest dip right
// after resume, and how long the stream takes to recover to steady
// throughput. The paper argues the uni-flow topology scales by adding
// nodes; this measures what the missing piece, changing the node count
// without restarting, actually costs.
func Elastic(opt Options) (Figure, error) {
	fig := Figure{
		ID:     "elastic",
		Title:  "Extension: live shard-set resizing 2→4→8 (rebalance pause, dip, and recovery)",
		XLabel: "shards",
		YLabel: "tuples/s · ms · tuples",
	}
	p := elasticParams{
		window:   1 << 13,
		phase:    40960,
		batch:    256,
		interval: 8,
	}
	if opt.Quick {
		p = elasticParams{window: 1 << 11, phase: 8192, batch: 256, interval: 4}
	}
	layouts := []int{2, 4, 8}

	addrs := make([]string, layouts[len(layouts)-1])
	for i := range addrs {
		srv, err := server.New(server.Config{})
		if err != nil {
			return Figure{}, err
		}
		ln, err := netListen()
		if err != nil {
			return Figure{}, err
		}
		go srv.Serve(ln)
		defer shutdownServer(srv)
		addrs[i] = ln.Addr().String()
	}
	r, err := shard.Dial(shard.Config{Addrs: addrs[:layouts[0]], Cores: 1, Window: p.window})
	if err != nil {
		return Figure{}, err
	}
	gen, err := workload.NewGenerator(workload.Spec{Seed: opt.Seed, KeyDomain: p.window})
	if err != nil {
		return Figure{}, err
	}
	drained := make(chan int)
	go func() {
		n := 0
		for range r.Results() {
			n++
		}
		drained <- n
	}()

	steady := Series{Label: "steady ingest (tuples/s)"}
	pause := Series{Label: "rebalance pause (ms)"}
	migrated := Series{Label: "window tuples migrated"}
	dip := Series{Label: "post-resume ingest, first sample (tuples/s)"}
	recovery := Series{Label: "recovery to 90% steady (ms)"}

	// sendPhase streams one fixed-layout phase and returns the per-batch
	// completion times (relative to the phase start) for rate math.
	sendPhase := func() ([]time.Duration, error) {
		nBatches := p.phase / p.batch
		marks := make([]time.Duration, 0, nBatches)
		t0 := time.Now()
		for i := 0; i < nBatches; i++ {
			if err := r.SendBatch(gen.Take(p.batch)); err != nil {
				return nil, err
			}
			marks = append(marks, time.Since(t0))
		}
		return marks, nil
	}
	// rate over batches (i, j] of a phase's marks.
	rate := func(marks []time.Duration, i, j int) float64 {
		span := marks[j] - marks[i]
		if span <= 0 {
			return 0
		}
		return float64((j-i)*p.batch) / span.Seconds()
	}

	prevSteady := 0.0
	for step, n := range layouts {
		if step > 0 {
			rep, err := r.Rebalance(addrs[:n])
			if err != nil {
				return Figure{}, fmt.Errorf("experiments: elastic resize to %d shards: %w", n, err)
			}
			if rep.Aborted || rep.SlicesLost != 0 {
				return Figure{}, fmt.Errorf("experiments: elastic resize to %d shards degraded: %+v", n, rep)
			}
			pause.Points = append(pause.Points, Point{X: float64(n), Y: float64(rep.Duration.Milliseconds())})
			migrated.Points = append(migrated.Points, Point{X: float64(n), Y: float64(rep.TuplesMigrated)})
		}
		marks, err := sendPhase()
		if err != nil {
			return Figure{}, err
		}
		// Steady rate: the back half of the phase, past any post-resume
		// transient.
		phaseSteady := rate(marks, len(marks)/2, len(marks)-1)
		steady.Points = append(steady.Points, Point{X: float64(n), Y: phaseSteady})
		if step > 0 {
			first := p.interval
			if first >= len(marks) {
				first = len(marks) - 1
			}
			dip.Points = append(dip.Points, Point{X: float64(n), Y: float64(first*p.batch) / marks[first].Seconds()})
			// Recovery: first rolling sample at or above 90% of the
			// previous layout's steady rate.
			rec := Point{X: float64(n), Missing: true, Note: "never reached 90% of prior steady rate"}
			for j := p.interval; j < len(marks); j += p.interval {
				if rate(marks, j-p.interval, j) >= 0.9*prevSteady {
					rec = Point{X: float64(n), Y: float64(marks[j].Milliseconds())}
					break
				}
			}
			recovery.Points = append(recovery.Points, rec)
		}
		prevSteady = phaseSteady
	}

	st, err := r.Close()
	if err != nil {
		return Figure{}, err
	}
	results := <-drained
	if st.ShardsDown > 0 || st.BatchesDropped > 0 {
		return Figure{}, fmt.Errorf("experiments: elastic run lossy: %+v", st)
	}
	if results == 0 {
		return Figure{}, fmt.Errorf("experiments: elastic run vacuous: no results")
	}
	completed, aborted, moved, total := r.RebalanceMetrics()
	if completed != uint64(len(layouts)-1) || aborted != 0 {
		return Figure{}, fmt.Errorf("experiments: elastic run counted %d/%d rebalances", completed, aborted)
	}

	fig.Series = append(fig.Series, steady, pause, migrated, dip, recovery)
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("global window %d carried across every transition; %d tuples per fixed-layout phase, batches of %d over loopback TCP", p.window, p.phase, p.batch),
		"pause = wall time the stream is held at the punctuation boundary while state is exported, re-sliced by the new modulus, and installed on the new layout",
		fmt.Sprintf("recovery = time from resume until a %d-batch rolling sample regains 90%% of the prior layout's steady rate", p.interval),
		fmt.Sprintf("%d rebalances moved %d window tuples in %v total; %d results merged across all three layouts with zero loss", completed, moved, total, results),
		"single-CPU reference box: steady ingest stays roughly flat as shards are added (the slice scans serialize), so the interesting columns are the transition costs")
	return fig, nil
}
