package experiments

import (
	"fmt"
	"time"

	"accelstream/internal/server"
	"accelstream/internal/shard"
	"accelstream/internal/workload"
)

// shardScaleRun is one measured run: the router ingest rate, which is
// wall-clock, and the work counters, which are deterministic for a seed.
type shardScaleRun struct {
	shards, tuples int
	rate           float64 // router ingest, input tuples per second
	ingested       uint64  // tuples the streamd servers ingested, summed over shards
	results        int     // merged results the router delivered
}

// shardScaleParams sizes one shard-scaling measurement.
type shardScaleParams struct {
	window int // global per-stream window (slice = window/shards)
	tuples int // arrivals pumped through the router
	batch  int // tuples per broadcast batch
	trials int // best-of repetitions per shard count
}

// ShardScale is an extension experiment: throughput of the sharded
// deployment (internal/shard: broadcast probe, round-robin residue-class
// store) as the shard count grows, every shard a streamd server behind
// loopback TCP.
//
// The headline series is the cluster's aggregate processed rate — the sum
// of per-shard ingest rates. Under SplitJoin's uni-flow discipline every
// shard receives and probes every tuple against its window slice, so N
// shards together process N× the input stream; that is the work the
// distribution tree fans out for free, and it is what grows with the
// machine count. The router's ingest rate (input tuples per second) is
// reported alongside: on a multi-core or multi-machine deployment it
// scales too, because the N slice scans run concurrently; this
// repository's reference box exposes a single CPU, so the slice scans
// serialize and the ingest rate stays roughly flat — the paper's point
// that splitting the window adds no work, only parallelism the hardware
// may or may not supply.
func ShardScale(opt Options) (Figure, error) {
	fig, _, err := shardScale(opt)
	return fig, err
}

// shardScale builds the figure and also returns the first trial's run at
// each shard count, whose counters the shape test asserts on.
func shardScale(opt Options) (Figure, []shardScaleRun, error) {
	fig := Figure{
		ID:     "shardscale",
		Title:  "Extension: sharded-deployment throughput scaling (shard router over loopback streamd)",
		XLabel: "shards",
		YLabel: "throughput (tuples/s)",
	}
	counts := []int{1, 2, 4, 8}
	p := shardScaleParams{
		window: 1 << 14,
		tuples: 32768,
		batch:  512,
		trials: 3,
	}
	if opt.Quick {
		counts = []int{1, 2}
		p = shardScaleParams{window: 1 << 12, tuples: 8192, batch: 256, trials: 1}
	}

	aggregate := Series{Label: "aggregate processed (sum over shards)"}
	ingest := Series{Label: "router ingest (input rate)"}
	var runs []shardScaleRun
	for _, n := range counts {
		best := 0.0
		for trial := 0; trial < p.trials; trial++ {
			run, err := measureShardScale(n, p, opt.Seed+int64(trial))
			if err != nil {
				return Figure{}, nil, fmt.Errorf("experiments: shardscale at %d shards: %w", n, err)
			}
			if trial == 0 {
				runs = append(runs, run)
			}
			if run.rate > best {
				best = run.rate
			}
		}
		aggregate.Points = append(aggregate.Points, Point{X: float64(n), Y: best * float64(n)})
		ingest.Points = append(ingest.Points, Point{X: float64(n), Y: best})
	}
	fig.Series = append(fig.Series, aggregate, ingest)
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("global window %d per stream; each shard stores its window/N residue-class slice and is probed by every tuple", p.window),
		"aggregate = N x ingest: every shard decodes, store-turns, and probes the full broadcast stream against its slice",
		"total comparison work is constant across shard counts (SplitJoin splits the window, not the probe), so on this single-CPU box the ingest rate stays roughly flat while the cluster-wide processed rate scales with N; with real cores per shard the ingest rate scales too",
		fmt.Sprintf("best of %d trials per point, %d tuples per run, batches of %d over loopback TCP, merged results verified non-empty", p.trials, p.tuples, p.batch))
	return fig, runs, nil
}

// measureShardScale times one full run at a given shard count: N loopback
// streamd servers, one router session, p.tuples pumped through, clock
// stopped when Close has drained the last merged result.
func measureShardScale(shards int, p shardScaleParams, seed int64) (shardScaleRun, error) {
	run := shardScaleRun{shards: shards, tuples: p.tuples}
	addrs := make([]string, shards)
	srvs := make([]*server.Server, shards)
	for i := range addrs {
		srv, err := server.New(server.Config{})
		if err != nil {
			return run, err
		}
		ln, err := netListen()
		if err != nil {
			return run, err
		}
		go srv.Serve(ln)
		defer shutdownServer(srv)
		srvs[i] = srv
		addrs[i] = ln.Addr().String()
	}
	r, err := shard.Dial(shard.Config{Addrs: addrs, Cores: 1, Window: p.window})
	if err != nil {
		return run, err
	}
	// Key domain = window keeps selectivity near one match per probe, so
	// result transfer stays a constant, minor share of the data path.
	gen, err := workload.NewGenerator(workload.Spec{Seed: seed, KeyDomain: p.window})
	if err != nil {
		return run, err
	}
	inputs := gen.Take(p.tuples)

	drained := make(chan int)
	go func() {
		n := 0
		for range r.Results() {
			n++
		}
		drained <- n
	}()

	t0 := time.Now()
	for off := 0; off < len(inputs); off += p.batch {
		end := off + p.batch
		if end > len(inputs) {
			end = len(inputs)
		}
		if err := r.SendBatch(inputs[off:end]); err != nil {
			return run, err
		}
	}
	st, err := r.Close()
	if err != nil {
		return run, err
	}
	elapsed := time.Since(t0)
	run.results = <-drained
	if st.ShardsDown > 0 || st.BatchesDropped > 0 {
		return run, fmt.Errorf("lossy run: %+v", st)
	}
	if run.results == 0 {
		return run, fmt.Errorf("no results; vacuous run")
	}
	// Close waited for every shard's Closed frame, so the per-session
	// ingest counters are final.
	for _, srv := range srvs {
		for _, m := range srv.Metrics() {
			run.ingested += m.TuplesIn
		}
	}
	run.rate = float64(p.tuples) / elapsed.Seconds()
	return run, nil
}
