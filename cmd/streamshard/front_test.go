package main

import (
	"context"
	"testing"
	"time"

	"accelstream"
	"accelstream/internal/workload"
)

// TestFrontSessionServesRouterBatches runs the daemon's own session
// engine — routerEngine over a shard router — behind a front server, the
// way run() wires it: the front session must pull the router's merged
// result batches through the batch capability (never the per-result
// Results view) and the client must still see the oracle's multiset.
func TestFrontSessionServesRouterBatches(t *testing.T) {
	const window, tuples, batchSz = 64, 8000, 64
	backends := []string{startBackend(t), startBackend(t)}
	reg := newRouterRegistry(backends, t.Logf)
	var eng *routerEngine
	front, err := accelstream.Serve("127.0.0.1:0", accelstream.ServerConfig{
		NewEngine: func(oc accelstream.SessionConfig) (accelstream.SessionEngineImpl, error) {
			r, err := accelstream.DialSharded(accelstream.ShardConfig{
				Addrs: reg.dep.Addrs(), Cores: oc.Cores, Window: oc.Window,
			})
			if err != nil {
				return nil, err
			}
			eng = &routerEngine{r: r, reg: reg, id: reg.add(r, routerMeta{cores: oc.Cores, window: oc.Window})}
			return eng, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		front.Shutdown(ctx)
	})

	c, err := accelstream.Dial(front.Addr().String(), accelstream.SessionConfig{
		Engine: accelstream.EngineSoftwareUniFlow, Cores: 2, Window: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.Spec{Seed: 4, KeyDomain: 32})
	if err != nil {
		t.Fatal(err)
	}
	inputs := gen.Take(tuples)
	var results []accelstream.Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		for res := range c.Results() {
			results = append(results, res)
		}
	}()
	for i := 0; i < len(inputs); i += batchSz {
		if err := c.SendBatch(inputs[i:min(i+batchSz, len(inputs))]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if err := accelstream.VerifyExactlyOnce(window, accelstream.EquiJoinOnKey(), inputs, results); err != nil {
		t.Fatal(err)
	}
	if st.ResultsOut != uint64(len(results)) || eng.r.ResultsEmitted() != st.ResultsOut {
		t.Errorf("front session sent %d results, router merged %d, client received %d",
			st.ResultsOut, eng.r.ResultsEmitted(), len(results))
	}
}
