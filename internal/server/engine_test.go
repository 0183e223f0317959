package server

import (
	"testing"

	"accelstream/internal/core"
	"accelstream/internal/stream"
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
