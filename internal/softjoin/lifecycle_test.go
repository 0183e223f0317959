package softjoin

import (
	"testing"

	"accelstream/internal/leakcheck"
	"accelstream/internal/stream"
)

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"ok", Config{NumCores: 4, WindowSize: 64}, false},
		{"indivisible ok (software rounds up)", Config{NumCores: 3, WindowSize: 64}, false},
		{"zero cores", Config{NumCores: 0, WindowSize: 64}, true},
		{"zero window", Config{NumCores: 4, WindowSize: 0}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewUniFlow(tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewUniFlow() error = %v, wantErr %v", err, tt.wantErr)
			}
			_, err = NewBiFlow(tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewBiFlow() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

// TestUniFlowPreload: preloaded windows join like streamed ones.
func TestUniFlowPreload(t *testing.T) {
	leakcheck.Check(t)
	const window = 64
	s := make([]stream.Tuple, window)
	for i := range s {
		s[i] = stream.Tuple{Key: uint32(i % 8), Seq: uint64(i)}
	}
	e, err := NewUniFlow(Config{NumCores: 4, WindowSize: window, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Preload(nil, s); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	wg, got := drain(e.Results())
	e.Push(stream.SideR, stream.Tuple{Key: 3})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(*got) != window/8 {
		t.Errorf("probe matched %d tuples, want %d", len(*got), window/8)
	}
}

func TestUniFlowPreloadAfterStartFails(t *testing.T) {
	leakcheck.Check(t)
	e, err := NewUniFlow(Config{NumCores: 2, WindowSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Preload(nil, nil); err == nil {
		t.Error("Preload after Start succeeded, want error")
	}
	wg, _ := drain(e.Results())
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestCloseBeforeStart: an engine whose Start never ran closes without
// an error — Close releases what construction took, which is only the
// output — and its output ends, so a consumer started before the Close
// returns; the engine cannot be started after.
func TestCloseBeforeStart(t *testing.T) {
	leakcheck.Check(t)
	uni, err := NewUniFlow(Config{NumCores: 2, WindowSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	bi, err := NewBiFlow(Config{NumCores: 2, WindowSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	biBatches, err := NewBiFlow(Config{NumCores: 2, WindowSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	uniDone, _ := drain(uni.Results())
	biDone, _ := drain(bi.Results())
	biBatchesDone := make(chan struct{})
	go func() {
		defer close(biBatchesDone)
		for range biBatches.Batches() {
		}
	}()
	for name, e := range map[string]interface {
		Start() error
		Close() error
	}{"uni": uni, "bi": bi, "bi Batches": biBatches} {
		if err := e.Close(); err != nil {
			t.Errorf("%s: Close before Start = %v, want nil", name, err)
		}
		if err := e.Close(); err != nil {
			t.Errorf("%s: repeated Close = %v, want nil", name, err)
		}
		if err := e.Start(); err == nil {
			t.Errorf("%s: Start after Close succeeded, want error", name)
		}
	}
	uniDone.Wait()
	biDone.Wait()
	<-biBatchesDone
}

func TestUniFlowLifecycleErrors(t *testing.T) {
	leakcheck.Check(t)
	e, err := NewUniFlow(Config{NumCores: 2, WindowSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err == nil {
		t.Error("double Start succeeded, want error")
	}
	wg, _ := drain(e.Results())
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("repeated Close = %v, want nil", err)
	}
	wg.Wait()
}

// TestUniFlowAutoKernelResolution: auto picks hash for the default
// equi-join condition and scan for anything else; forcing hash with a
// non-equi condition is a configuration error.
func TestUniFlowAutoKernelResolution(t *testing.T) {
	e, err := NewUniFlow(Config{NumCores: 1, WindowSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if e.Kernel() != stream.KernelHash {
		t.Errorf("auto kernel for equi-join = %v, want hash", e.Kernel())
	}
	band := stream.JoinCondition{LHS: stream.FieldKey, RHS: stream.FieldKey, Cmp: stream.CmpLT}
	e, err = NewUniFlow(Config{NumCores: 1, WindowSize: 8, Condition: band})
	if err != nil {
		t.Fatal(err)
	}
	if e.Kernel() != stream.KernelScan {
		t.Errorf("auto kernel for non-equi condition = %v, want scan", e.Kernel())
	}
	if _, err := NewUniFlow(Config{NumCores: 1, WindowSize: 8, Condition: band, ProbeKernel: stream.KernelHash}); err == nil {
		t.Error("forcing the hash kernel with a non-equi condition succeeded, want error")
	}
	if _, err := NewUniFlow(Config{NumCores: 1, WindowSize: 8, ProbeKernel: stream.ProbeKernel(7)}); err == nil {
		t.Error("invalid kernel code accepted, want error")
	}
}
