package experiments

import (
	"fmt"
	"time"

	"accelstream/internal/autoscale"
	"accelstream/internal/core"
	"accelstream/internal/server"
	"accelstream/internal/shard"
	"accelstream/internal/stream"
	"accelstream/internal/workload"
)

// autoscaleParams sizes the closed-loop autoscaling measurement.
type autoscaleParams struct {
	window  int     // global window; must divide by every shard count 1..4
	hotTPS  float64 // aggregate ingest during the ramp-up phase
	coldTPS float64 // aggregate ingest during the ramp-down phase
	batch   int     // tuples per broadcast batch
}

// Autoscale is an extension experiment for the Section VI elasticity
// story, one layer above the elastic figure: instead of an operator
// invoking the rebalance control plane by hand, a closed-loop controller
// (internal/autoscale) watches the router's live signals and drives the
// same plane itself. A load ramp pushes a 1-shard deployment up to the
// full 4-address pool and a quiet phase walks it back down, measuring the
// deployment trajectory, the spacing hysteresis enforces between actions,
// and each action's rebalance pause — with the merged results checked
// oracle-equal across every transition (zero loss).
func Autoscale(opt Options) (Figure, error) {
	fig := Figure{
		ID:     "autoscale",
		Title:  "Extension: closed-loop shard autoscaling 1→4→1 under a load ramp",
		XLabel: "elapsed (s)",
		YLabel: "shards · ms",
	}
	p := autoscaleParams{window: 1200, hotTPS: 30000, coldTPS: 300, batch: 48}
	if opt.Quick {
		p = autoscaleParams{window: 240, hotTPS: 20000, coldTPS: 300, batch: 48}
	}
	pol := autoscale.Policy{
		TickMS:       25,
		WindowTicks:  3,
		HighWaterTPS: 4000,
		LowWaterTPS:  400,
		UpAfter:      2,
		DownAfter:    4,
		MinShards:    1,
		MaxShards:    4,
		CooldownMS:   150,
	}

	srvs, addrs, err := startServers(4, server.Config{})
	if err != nil {
		return Figure{}, err
	}
	defer stopServers(srvs)
	r, err := shard.Dial(shard.Config{
		Addrs:     addrs[:1],
		Standby:   addrs[1:],
		Cores:     1,
		Window:    p.window,
		Autoscale: &pol,
	})
	if err != nil {
		return Figure{}, err
	}
	gen, err := workload.NewGenerator(workload.Spec{Seed: opt.Seed, KeyDomain: p.window})
	if err != nil {
		return Figure{}, err
	}
	var results []stream.Result
	drained := make(chan struct{})
	go func() {
		for res := range r.Results() {
			results = append(results, res)
		}
		close(drained)
	}()

	shardsSeries := Series{Label: "shards"}
	var inputs []core.Input
	t0 := time.Now()
	lastShards := 0
	observe := func() int {
		n := len(r.Shards())
		if n != lastShards {
			shardsSeries.Points = append(shardsSeries.Points,
				Point{X: time.Since(t0).Seconds(), Y: float64(n)})
			lastShards = n
		}
		return n
	}
	observe()

	// runPhase paces ingest at tps until the deployment hits the target
	// shard count, recording every layout change.
	runPhase := func(name string, tps float64, target int, budget time.Duration) error {
		pacer, err := workload.NewPacer(tps)
		if err != nil {
			return err
		}
		deadline := time.Now().Add(budget)
		for observe() != target {
			if time.Now().After(deadline) {
				return fmt.Errorf("experiments: autoscale %s phase never reached %d shards (at %d)",
					name, target, len(r.Shards()))
			}
			b := gen.Take(p.batch)
			inputs = append(inputs, b...)
			if err := r.SendBatch(b); err != nil {
				return fmt.Errorf("experiments: autoscale %s phase: %w", name, err)
			}
			pacer.WaitBatch(p.batch)
		}
		return nil
	}
	if err := runPhase("hot", p.hotTPS, 4, 30*time.Second); err != nil {
		return Figure{}, err
	}
	if err := runPhase("cold", p.coldTPS, 1, 60*time.Second); err != nil {
		return Figure{}, err
	}

	rep, ok := r.AutoscaleReport()
	if !ok {
		return Figure{}, fmt.Errorf("experiments: autoscale controller missing from router")
	}
	st, err := r.Close()
	if err != nil {
		return Figure{}, err
	}
	<-drained

	if st.ShardsDown > 0 || st.BatchesDropped > 0 {
		return Figure{}, fmt.Errorf("experiments: autoscale run lossy: %+v", st)
	}
	if err := core.VerifyExactlyOnce(p.window, stream.EquiJoinOnKey(), inputs, results); err != nil {
		return Figure{}, fmt.Errorf("experiments: autoscale run diverged from oracle: %w", err)
	}
	if rep.ScaleUps < 3 || rep.ScaleDowns < 3 {
		return Figure{}, fmt.Errorf("experiments: autoscale run took %d ups / %d downs, want >= 3 each",
			rep.ScaleUps, rep.ScaleDowns)
	}

	// Hysteresis check and the per-action series: spacing between
	// consecutive actions (the cooldown floor) and each action's rebalance
	// pause.
	spacing := Series{Label: "action spacing (ms)"}
	pause := Series{Label: "rebalance pause (ms)"}
	minGap := time.Duration(-1)
	for i, d := range rep.Recent {
		x := d.At.Sub(t0).Seconds()
		pause.Points = append(pause.Points, Point{X: x, Y: float64(d.Took.Milliseconds())})
		if i > 0 {
			gap := d.At.Sub(rep.Recent[i-1].At)
			spacing.Points = append(spacing.Points, Point{X: x, Y: float64(gap.Milliseconds())})
			if minGap < 0 || gap < minGap {
				minGap = gap
			}
		}
	}
	if minGap >= 0 && minGap < pol.Cooldown() {
		return Figure{}, fmt.Errorf("experiments: autoscale actions only %v apart, cooldown is %v (flapping)",
			minGap, pol.Cooldown())
	}

	fig.Series = append(fig.Series, shardsSeries, spacing, pause)
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("closed loop: %v ticks, up after %d hot ticks, down after %d quiet ticks, %v cooldown; high water %.0f tup/s/shard, low water %.0f",
			pol.Tick(), pol.UpAfter, pol.DownAfter, pol.Cooldown(), pol.HighWaterTPS, pol.LowWaterTPS),
		fmt.Sprintf("load ramp: %.0f tup/s aggregate until the pool's 4 shards are active, then %.0f tup/s until back to 1", p.hotTPS, p.coldTPS),
		fmt.Sprintf("%d scale-ups and %d scale-downs over %d ticks; every action >= one cooldown after the previous (min gap %v)",
			rep.ScaleUps, rep.ScaleDowns, rep.Ticks, minGap),
		fmt.Sprintf("%d tuples streamed, %d results merged, zero shard loss and zero dropped batches; result multiset equals the single-engine oracle across all %d transitions",
			len(inputs), len(results), rep.ScaleUps+rep.ScaleDowns),
		"global window carried intact through every autoscale-triggered rebalance (window "+fmt.Sprint(p.window)+", divisible by every reachable shard count)")
	return fig, nil
}
