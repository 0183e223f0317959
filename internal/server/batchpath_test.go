package server

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/softjoin"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
	"accelstream/internal/workload"
)

// TestResultPathAllocFree pins the batch-granular result path's
// steady-state cost: one round — a batch in, its results probed into a
// pooled vector, encoded straight from it into Results frames, written
// with one Write each, decoded into a pooled batch on the client and
// handed over whole — performs zero heap allocations, ingest leg
// included. Each round's results span several frames (more than
// maxResultsPerFrame per input batch), so 0 allocs/round is 0 allocs/frame.
func TestResultPathAllocFree(t *testing.T) {
	const (
		window = 1024
		batch  = 256 // per-side 128 tuples over 8 keys: 128·(1024/8) results/side/batch
		rounds = 50
		warm   = 20
	)
	_, addr := startServer(t, Config{})
	c, err := Dial(addr, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 2, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	in := make([]core.Input, batch)
	for i := range in {
		side := stream.SideR
		if i%2 == 1 {
			side = stream.SideS
		}
		in[i] = core.Input{Side: side, Tuple: stream.Tuple{Key: uint32(i/2) % 8, Val: uint32(i)}}
	}
	// The same batch every round: the oracle gives the cumulative result
	// count after each, which is how a round knows it has seen everything.
	oracle, err := core.NewOracle(window, stream.EquiJoinOnKey())
	if err != nil {
		t.Fatal(err)
	}
	cum := make([]uint64, 1, warm+rounds+2)
	for len(cum) < cap(cum) {
		n := cum[len(cum)-1]
		for _, x := range in {
			res, err := oracle.Push(x.Side, x.Tuple)
			if err != nil {
				t.Fatal(err)
			}
			n += uint64(len(res))
		}
		cum = append(cum, n)
	}
	if perRound := cum[len(cum)-1] - cum[len(cum)-2]; perRound <= 2*maxResultsPerFrame {
		t.Fatalf("vacuous: %d results per round do not span several frames", perRound)
	}

	var sent int
	var got uint64
	round := func() {
		if err := c.SendBatch(in); err != nil {
			t.Fatal(err)
		}
		sent++
		for got < cum[sent] {
			b, ok := <-c.Batches()
			if !ok {
				t.Fatalf("session ended early: %v", c.Err())
			}
			got += uint64(len(b.Results))
			b.Release()
		}
	}
	// The count is process-wide, and a collection inside the rounds would
	// read as allocations: it empties the sync.Pools the path reuses and
	// runs the runtime's own cleanups. So collect once now and run the
	// warm-up and the rounds with the collector off.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(gcPercent) })
	for i := 0; i < warm; i++ {
		round() // fills the windows and grows every pooled buffer to size
	}
	if allocs := testing.AllocsPerRun(rounds, round); allocs != 0 && !raceEnabled {
		t.Errorf("steady-state round (batch in, %d results out): %v allocs, want 0",
			cum[sent]-cum[sent-1], allocs)
	}
	go func() {
		for b := range c.Batches() {
			b.Release()
		}
	}()
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.ResultsOut != got {
		t.Errorf("server sent %d results, rounds received %d", st.ResultsOut, got)
	}
}

// tapEngine has the shape of an embedder's decorator (the benchmark
// harness's traced engine): it embeds *softjoin.UniFlow — so every
// exported UniFlow method, Batches included, is promoted onto it — and
// overrides Results() with its own channel fed from the inner engine.
// The session must serve it exclusively through that override.
type tapEngine struct {
	*softjoin.UniFlow
	out    chan stream.Result
	tapped atomic.Uint64
}

func (e *tapEngine) Start() error {
	if err := e.UniFlow.Start(); err != nil {
		return err
	}
	go func() {
		defer close(e.out)
		for r := range e.UniFlow.Results() {
			e.tapped.Add(1)
			e.out <- r
		}
	}()
	return nil
}

func (e *tapEngine) PushBatch(b []core.Input) error { e.UniFlow.PushBatch(b); return nil }
func (e *tapEngine) Results() <-chan stream.Result  { return e.out }
func (e *tapEngine) Backlog() int                   { return len(e.out) }

// plainEngine is an embedder's Engine with only the five base methods and
// nothing to promote: results come from a channel it fills itself.
type plainEngine struct {
	inner *softjoin.UniFlow
}

func (e plainEngine) Start() error                   { return e.inner.Start() }
func (e plainEngine) PushBatch(b []core.Input) error { e.inner.PushBatch(b); return nil }
func (e plainEngine) Results() <-chan stream.Result  { return e.inner.Results() }
func (e plainEngine) Close() error                   { return e.inner.Close() }
func (e plainEngine) Backlog() int                   { return 0 }

// TestEmbedderEnginesServedThroughResults covers the two embedder shapes
// the batch capability must not break. "tap" is the promotion trap: were
// the session's capability probe satisfied by a method UniFlow exports,
// it would drain the inner engine's batches while the tap's goroutine
// drains the same engine's Results — the two would split the stream and
// the tap would see only part of it. "plain" is the fallback source: an
// Engine with no optional capability at all.
func TestEmbedderEnginesServedThroughResults(t *testing.T) {
	const window, tuples, batch = 128, 6000, 96
	for _, shape := range []string{"tap", "plain"} {
		t.Run(shape, func(t *testing.T) {
			var tap *tapEngine
			_, addr := startServer(t, Config{
				NewEngine: func(cfg wire.OpenConfig) (Engine, error) {
					u, err := softjoin.NewUniFlow(softjoin.Config{NumCores: cfg.Cores, WindowSize: cfg.Window})
					if err != nil {
						return nil, err
					}
					if shape == "plain" {
						return plainEngine{u}, nil
					}
					tap = &tapEngine{UniFlow: u, out: make(chan stream.Result, 64)}
					return tap, nil
				},
			})
			c, err := Dial(addr, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 2, Window: window})
			if err != nil {
				t.Fatal(err)
			}
			gen, err := workload.NewGenerator(workload.Spec{Seed: 5, KeyDomain: 64})
			if err != nil {
				t.Fatal(err)
			}
			inputs := gen.Take(tuples)
			var results []stream.Result
			done := make(chan struct{})
			go drainAll(c, &results, done)
			streamInputs(t, c, inputs, batch)
			st, err := c.Close()
			if err != nil {
				t.Fatal(err)
			}
			<-done
			if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, results); err != nil {
				t.Fatal(err)
			}
			if st.ResultsOut != uint64(len(results)) {
				t.Errorf("server reports %d results, client received %d", st.ResultsOut, len(results))
			}
			if tap != nil && tap.tapped.Load() != uint64(len(results)) {
				t.Errorf("tap saw %d of %d results: the session drained the engine behind its Results()",
					tap.tapped.Load(), len(results))
			}
		})
	}
}

// TestCheckpointBarrierWithSlowConsumer: the checkpoint durability
// barrier — quiesce the engine, then wait until every result the
// snapshotted input implies has been handed to the connection — must
// terminate and stay exact when the result consumer is slow, i.e. when
// whole batches back up in the engine's output, the session's write
// blocks on a full socket, and the client's batch channel is full.
func TestCheckpointBarrierWithSlowConsumer(t *testing.T) {
	const window, total, batch = 256, 4096, 128
	_, addr := startServer(t, Config{})
	c, err := Dial(addr, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 2, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.Spec{Seed: 11, KeyDomain: 16})
	if err != nil {
		t.Fatal(err)
	}
	inputs := gen.Take(total)
	oracle, err := core.NewOracle(window, stream.EquiJoinOnKey())
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var results []stream.Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := range c.Batches() {
			time.Sleep(200 * time.Microsecond) // a consumer slower than the engine
			mu.Lock()
			results = append(results, b.Results...)
			mu.Unlock()
			b.Release()
		}
	}()

	streamInputs(t, c, inputs[:total/2], batch)
	if _, _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Results frames precede CheckpointDone on the wire, so the received
	// count is already exact for the pre-checkpoint input.
	half, err := core.NewOracle(window, stream.EquiJoinOnKey())
	if err != nil {
		t.Fatal(err)
	}
	wantHalf, err := half.Run(inputs[:total/2])
	if err != nil {
		t.Fatal(err)
	}
	if got := c.ResultsReceived(); got != uint64(len(wantHalf)) {
		t.Fatalf("at the checkpoint the client had received %d results, the cut implies %d", got, len(wantHalf))
	}
	streamInputs(t, c, inputs[total/2:], batch)
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if st.ResultsOut != uint64(len(want)) || len(results) != len(want) {
		t.Fatalf("server sent %d, client received %d, oracle has %d", st.ResultsOut, len(results), len(want))
	}
	if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, results); err != nil {
		t.Fatal(err)
	}
}

// scriptedEngine is a ResultBatcher whose every PushBatch emits a fixed
// script of result batches, numbered consecutively in R.Seq, into a
// channel deep enough that the whole script is ready at once.
type scriptedEngine struct {
	script []int // sizes of the batches one PushBatch emits
	out    chan *stream.ResultBatch
	next   uint64
}

func (e *scriptedEngine) Start() error { return nil }
func (e *scriptedEngine) PushBatch([]core.Input) error {
	for _, n := range e.script {
		b := frameBatches.Get()
		for i := 0; i < n; i++ {
			b.Results = append(b.Results, stream.Result{R: stream.Tuple{Seq: e.next}})
			e.next++
		}
		e.out <- b
	}
	return nil
}
func (e *scriptedEngine) Results() <-chan stream.Result {
	panic("session called Results on a ResultBatcher")
}
func (e *scriptedEngine) Close() error { close(e.out); return nil }
func (e *scriptedEngine) Backlog() int { return len(e.out) }
func (e *scriptedEngine) NextResultBatch(wait bool) (*stream.ResultBatch, bool) {
	return stream.ReceiveBatch(e.out, wait)
}

// TestPumpFramesByBatchSize pins how the session frames what it pulls:
// batches that fill half a frame or more are cut into frames on their
// own, batches smaller than that are packed together while more are
// ready — so a burst of tiny batches (many cores, low selectivity) costs
// a handful of frames, not one write per batch — and either way every
// result arrives exactly once, in emission order.
func TestPumpFramesByBatchSize(t *testing.T) {
	tiny := make([]int, 200)
	for i := range tiny {
		tiny[i] = 5
	}
	for _, tc := range []struct {
		name      string
		script    []int
		maxFrames uint64
	}{
		{"one large batch", []int{2500}, 3},                    // 1024 + 1024 + 452
		{"burst of tiny batches", tiny, 20},                    // 1000 results: 1 frame if all were ready
		{"tiny then large then tiny", []int{5, 3000, 7}, 5},    // top up the open frame, then straight from the batch
		{"exactly one frame each", []int{1024, 1024, 1024}, 3}, // never copied, never split
	} {
		t.Run(tc.name, func(t *testing.T) {
			var total uint64
			for _, n := range tc.script {
				total += uint64(n)
			}
			srv, addr := startServer(t, Config{
				NewEngine: func(wire.OpenConfig) (Engine, error) {
					return &scriptedEngine{script: tc.script, out: make(chan *stream.ResultBatch, len(tc.script))}, nil
				},
			})
			c, err := Dial(addr, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 8})
			if err != nil {
				t.Fatal(err)
			}
			var results []stream.Result
			done := make(chan struct{})
			go drainAll(c, &results, done)
			if err := c.SendBatch([]core.Input{{Side: stream.SideR}}); err != nil {
				t.Fatal(err)
			}
			st, err := c.Close()
			if err != nil {
				t.Fatal(err)
			}
			<-done
			if uint64(len(results)) != total || st.ResultsOut != total {
				t.Fatalf("client received %d results, server sent %d, engine emitted %d", len(results), st.ResultsOut, total)
			}
			for i, r := range results {
				if r.R.Seq != uint64(i) {
					t.Fatalf("result %d carries number %d: order or content lost in framing", i, r.R.Seq)
				}
			}
			frames := srv.Metrics()[0].ResultFrames
			if frames == 0 || frames > tc.maxFrames {
				t.Errorf("%d results in %d batches went out in %d frames, want at most %d",
					total, len(tc.script), frames, tc.maxFrames)
			}
		})
	}
}
