package server

import (
	"testing"

	"accelstream/internal/core"
	"accelstream/internal/leakcheck"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// TestSimEngineForgetsDrainedResults pushes many matching batches through
// the simulated engine and checks that its sink never holds more results
// than the last drain forwarded: a session's memory must not grow with
// the results it has already handed on.
func TestSimEngineForgetsDrainedResults(t *testing.T) {
	e, err := newSimEngine(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]core.Input, 32)
	for i := range batch {
		side := stream.SideR
		if i%2 == 1 {
			side = stream.SideS
		}
		batch[i] = core.Input{Side: side, Tuple: stream.Tuple{Key: uint32(i / 2 % 4)}}
	}
	total := 0
	for i := 0; i < 50; i++ {
		if err := e.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
		forwarded := len(e.results)
		for range forwarded {
			<-e.results
		}
		total += forwarded
		if kept := len(e.design.Sink().Results()); kept > forwarded {
			t.Fatalf("push %d: the sink keeps %d results after a drain that forwarded %d (%d in all)", i, kept, forwarded, total)
		}
	}
	if total == 0 {
		t.Fatal("the workload produced no results")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSoftwareEnginesServedInBatches: both software engines are served
// through ResultBatcher, and a session that reads Backlog between pulls
// loses nothing. Backlog is answered from counters; one that read the
// Results view's length would start a second consumer of the output and
// steal batches from NextResultBatch.
func TestSoftwareEnginesServedInBatches(t *testing.T) {
	leakcheck.Check(t)
	for _, kind := range []wire.EngineKind{wire.EngineSoftUni, wire.EngineSoftBi} {
		eng, err := buildEngine(wire.OpenConfig{Engine: kind, Cores: 2, Window: 64})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := eng.(ResultBatcher); !ok {
			t.Errorf("%v: %T is not a ResultBatcher", kind, eng)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}

	eng, err := buildEngine(wire.OpenConfig{Engine: wire.EngineSoftBi, Cores: 4, Window: 256})
	if err != nil {
		t.Fatal(err)
	}
	bi := eng.(*biEngine)
	if err := bi.Start(); err != nil {
		t.Fatal(err)
	}
	pushed := make(chan error, 1)
	go func() {
		batch := make([]core.Input, 64)
		for round := 0; round < 32; round++ {
			for i := range batch {
				side := stream.SideR
				if i%2 == 1 {
					side = stream.SideS
				}
				batch[i] = core.Input{Side: side, Tuple: stream.Tuple{Key: uint32(round*7+i) % 16}}
			}
			if err := bi.PushBatch(batch); err != nil {
				pushed <- err
				return
			}
		}
		pushed <- bi.Close()
	}()
	var taken uint64
	for {
		_ = bi.Backlog()
		b, ok := bi.NextResultBatch(true)
		if !ok {
			break
		}
		taken += uint64(len(b.Results))
		b.Release()
	}
	if err := <-pushed; err != nil {
		t.Fatal(err)
	}
	if taken == 0 {
		t.Fatal("no results; vacuous test")
	}
	if c := bi.Collected(); taken != c {
		t.Errorf("NextResultBatch handed over %d results, the engine collected %d", taken, c)
	}
	if bl := bi.Backlog(); bl != 0 {
		t.Errorf("Backlog() = %d after the output closed, want 0", bl)
	}
}
