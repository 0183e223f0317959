package server

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
	"accelstream/internal/workload"
)

// recordingEngine is a discardEngine that keeps a copy of every push and
// marks every snapshot cut, so a test sees how the session grouped the
// frames it read into engine batches.
type recordingEngine struct {
	discardEngine
	mu     sync.Mutex
	pushes [][]core.Input // a nil entry marks a snapshot cut
}

func (e *recordingEngine) PushBatch(b []core.Input) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pushes = append(e.pushes, append([]core.Input{}, b...))
	return nil
}

func (e *recordingEngine) SnapshotState() ([]core.Input, uint64, uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pushes = append(e.pushes, nil)
	return nil, 0, 0, nil
}

func (e *recordingEngine) recorded() [][]core.Input {
	e.mu.Lock()
	defer e.mu.Unlock()
	return slices.Clone(e.pushes)
}

// startRecording starts a server whose sessions run recordingEngines;
// each session's engine is delivered on the returned channel.
func startRecording(t *testing.T, cfg Config) (*Server, string, <-chan *recordingEngine) {
	engines := make(chan *recordingEngine, 4)
	cfg.NewEngine = func(wire.OpenConfig) (Engine, error) {
		e := &recordingEngine{discardEngine: discardEngine{out: make(chan stream.Result)}}
		engines <- e
		return e, nil
	}
	srv, addr := startServer(t, cfg)
	return srv, addr, engines
}

// numbered returns n distinct tuples, alternating sides, numbered from
// first on.
func numbered(n, first int) []core.Input {
	in := make([]core.Input, n)
	for i := range in {
		side := stream.SideR
		if i%2 == 1 {
			side = stream.SideS
		}
		in[i] = core.Input{Side: side, Tuple: stream.Tuple{Key: uint32(first + i), Val: uint32(first + i)}}
	}
	return in
}

// framesOf encodes in as consecutive Batch frames of n tuples (the last
// may be shorter), for one conn.Write.
func framesOf(t *testing.T, in []core.Input, n int) []byte {
	return encode(t, func(w *wire.Writer) error {
		for off, seq := 0, uint64(1); off < len(in); off, seq = off+n, seq+1 {
			if err := w.WriteBatch(seq, in[off:min(off+n, len(in))]); err != nil {
				return err
			}
		}
		return nil
	})
}

// checkMerges asserts that pushes carry exactly want, in order, each as
// whole frames of the given size, none continuing past the frame that
// brought it to mergeBelow tuples and none over limit tuples. It returns
// the number of pushes.
func checkMerges(t *testing.T, pushes [][]core.Input, want []core.Input, frame, limit int) int {
	t.Helper()
	var got []core.Input
	for i, p := range pushes {
		switch {
		case len(p) == 0 || len(p)%frame != 0:
			t.Fatalf("push %d carries %d tuples, not whole %d-tuple frames", i, len(p), frame)
		case len(p)-frame >= mergeBelow:
			t.Fatalf("push %d of %d tuples continued past the frame that reached %d", i, len(p), mergeBelow)
		case len(p) > limit:
			t.Fatalf("push %d of %d tuples exceeds MaxBatch %d", i, len(p), limit)
		}
		got = append(got, p...)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%d pushes carry %d tuples that are not the %d frame tuples in order", len(pushes), len(got), len(want))
	}
	return len(pushes)
}

// closeRaw ends a raw session gracefully.
func closeRaw(t *testing.T, rs *rawSession) {
	t.Helper()
	rs.write(t, encode(t, (*wire.Writer).WriteClose))
	rs.read(t, untilFrame(wire.FrameClosed))
}

// TestBufferedBatchesMerge pins how the session groups the Batch frames
// its read buffer holds into engine pushes: small frames that arrived
// together merge up to mergeBelow tuples, a push never spans a control
// frame or exceeds MaxBatch, frames of mergeBelow tuples or more go
// alone, and credits, counters and error reporting stay per frame.
func TestBufferedBatchesMerge(t *testing.T) {
	cfg := wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 64}

	t.Run("small frames merge", func(t *testing.T) {
		srv, addr, engines := startRecording(t, Config{})
		rs := dialRaw(t, addr, cfg)
		eng := <-engines
		const k, n = 8, 64
		in := numbered(k*n, 0)
		rs.write(t, framesOf(t, in, n))
		if tl := rs.read(t, untilCredits(k)); tl.credits != k {
			t.Fatalf("%d frames got %d credits, want %d", k, tl.credits, k)
		}
		if pushes := checkMerges(t, eng.recorded(), in, n, 1<<30); pushes >= k {
			t.Fatalf("%d frames in one write reached the engine in %d pushes, want fewer", k, pushes)
		}
		if m := srv.Metrics()[0]; m.BatchesIn != k || m.TuplesIn != k*n {
			t.Fatalf("session counted %d batches / %d tuples, want %d / %d", m.BatchesIn, m.TuplesIn, k, k*n)
		}
		if m := srv.Metrics()[0]; m.AvgBatchLatency <= 0 || m.MaxBatchLatency < m.AvgBatchLatency {
			t.Fatalf("implausible per-frame latency avg=%v max=%v", m.AvgBatchLatency, m.MaxBatchLatency)
		}
		closeRaw(t, rs)
		waitCreditsOutstanding(t, srv)
	})

	t.Run("no push spans a checkpoint", func(t *testing.T) {
		_, addr, engines := startRecording(t, Config{})
		rs := dialRaw(t, addr, cfg)
		eng := <-engines
		const k, n = 6, 16
		before, after := numbered(k*n, 0), numbered(k*n, k*n)
		rs.write(t, slices.Concat(framesOf(t, before, n), encode(t, (*wire.Writer).WriteCheckpoint), framesOf(t, after, n)))
		if tl := rs.read(t, untilFrame(wire.FrameCheckpointDone)); tl.credits != k {
			t.Fatalf("%d credits before CheckpointDone, want %d", tl.credits, k)
		}
		if tl := rs.read(t, untilCredits(k)); tl.credits != k {
			t.Fatalf("%d credits after CheckpointDone, want %d", tl.credits, k)
		}
		pushes := eng.recorded()
		cut := slices.IndexFunc(pushes, func(p []core.Input) bool { return p == nil })
		if cut < 0 {
			t.Fatal("the checkpoint never reached the engine")
		}
		if n := checkMerges(t, pushes[:cut], before, n, 1<<30); n >= k {
			t.Fatalf("%d frames ahead of the checkpoint took %d pushes, want fewer", k, n)
		}
		checkMerges(t, pushes[cut+1:], after, n, 1<<30)
		closeRaw(t, rs)
	})

	t.Run("frames of mergeBelow or more go alone", func(t *testing.T) {
		_, addr, engines := startRecording(t, Config{})
		rs := dialRaw(t, addr, cfg)
		eng := <-engines
		const k, n = 4, 300
		in := numbered(k*n, 0)
		rs.write(t, framesOf(t, in, n))
		rs.read(t, untilCredits(k))
		if pushes := checkMerges(t, eng.recorded(), in, n, n); pushes != k {
			t.Fatalf("%d frames of %d tuples took %d pushes, want one each", k, n, pushes)
		}
		closeRaw(t, rs)
	})

	t.Run("MaxBatch bounds a merge", func(t *testing.T) {
		const limit = 100
		_, addr, engines := startRecording(t, Config{MaxBatch: limit})
		rs := dialRaw(t, addr, cfg)
		eng := <-engines
		const k, n = 8, 64
		in := numbered(k*n, 0)
		rs.write(t, framesOf(t, in, n))
		if tl := rs.read(t, untilCredits(k)); tl.credits != k {
			t.Fatalf("%d frames got %d credits, want %d", k, tl.credits, k)
		}
		checkMerges(t, eng.recorded(), in, n, limit)
		closeRaw(t, rs)
	})

	t.Run("bad frame after good ones", func(t *testing.T) {
		srv, addr, engines := startRecording(t, Config{})
		rs := dialRaw(t, addr, cfg)
		eng := <-engines
		const k, n = 3, 16
		good := numbered(k*n, 0)
		bad := encode(t, func(w *wire.Writer) error {
			return w.WriteBatch(k+1, []core.Input{{Side: 9}}) // CRC-valid, undecodable
		})
		rs.write(t, append(framesOf(t, good, n), bad...))
		rs.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		credits := 0
		for {
			f, err := rs.r.ReadFrame()
			if err != nil {
				t.Fatalf("session ended after %d credits without an Error frame: %v", credits, err)
			}
			if f.Type == wire.FrameError {
				break
			}
			if f.Type == wire.FrameCredit {
				c, err := wire.DecodeCredit(f.Payload)
				if err != nil {
					t.Fatal(err)
				}
				credits += c
			}
		}
		if credits != k {
			t.Fatalf("%d credits before the Error frame, want one per good frame (%d)", credits, k)
		}
		checkMerges(t, eng.recorded(), good, n, 1<<30)
		waitCreditsOutstanding(t, srv)
	})
}

// countingUniEngine is the built-in soft-uni engine with its pushes
// counted; every other method, the batch result capability included, is
// the real engine's.
type countingUniEngine struct {
	*uniEngine
	pushes atomic.Uint64
}

func (e *countingUniEngine) PushBatch(b []core.Input) error {
	e.pushes.Add(1)
	return e.uniEngine.PushBatch(b)
}

// TestMergedPushesOracle pipelines 16-tuple frames, many per write, into
// the real soft-uni engine, so most pushes merge several frames: every
// mode and kernel must stay oracle-equal, and ordered mode must still
// release results in the arrival order of their probing tuples.
func TestMergedPushesOracle(t *testing.T) {
	const (
		window   = 256
		tuples   = 6144
		frame    = 16
		perWrite = 24 // frames per conn.Write
	)
	gen, err := workload.NewGenerator(workload.Spec{Seed: 29, KeyDomain: 128})
	if err != nil {
		t.Fatal(err)
	}
	inputs := gen.Take(tuples)
	// arrival maps (side, per-side sequence number) to the input position.
	arrival := [2][]int{}
	for i, in := range inputs {
		side := 0
		if in.Side == stream.SideS {
			side = 1
		}
		arrival[side] = append(arrival[side], i)
	}
	for _, ordered := range []bool{false, true} {
		for _, kernel := range []stream.ProbeKernel{stream.KernelHash, stream.KernelScan} {
			mode := "relaxed"
			if ordered {
				mode = "ordered"
			}
			t.Run(mode+"/"+kernel.String(), func(t *testing.T) {
				var eng *countingUniEngine
				_, addr := startServer(t, Config{NewEngine: func(cfg wire.OpenConfig) (Engine, error) {
					e, err := buildEngine(cfg)
					if err != nil {
						return nil, err
					}
					eng = &countingUniEngine{uniEngine: e.(*uniEngine)}
					return eng, nil
				}})
				rs := dialRaw(t, addr, wire.OpenConfig{
					Engine: wire.EngineSoftUni, Cores: 2, Window: window, Ordered: ordered, ProbeKernel: kernel,
				})
				var writes [][]byte
				for off := 0; off < tuples; off += frame * perWrite {
					writes = append(writes, framesOf(t, inputs[off:min(off+frame*perWrite, tuples)], frame))
				}
				writes = append(writes, encode(t, (*wire.Writer).WriteClose))
				// Results flow back while frames are still going out, so the
				// writes run beside the reads.
				writeErr := make(chan error, 1)
				go func() {
					var err error
					for _, b := range writes {
						if _, err = rs.conn.Write(b); err != nil {
							break
						}
					}
					writeErr <- err
				}()
				tl := rs.read(t, untilFrame(wire.FrameClosed))
				if err := <-writeErr; err != nil {
					t.Fatal(err)
				}
				if tl.credits != tuples/frame {
					t.Fatalf("%d credits for %d frames", tl.credits, tuples/frame)
				}
				if pushes := eng.pushes.Load(); pushes >= tuples/frame {
					t.Fatalf("%d frames took %d pushes: nothing merged, the test is vacuous", tuples/frame, pushes)
				}
				if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, tl.results); err != nil {
					t.Fatal(err)
				}
				if !ordered {
					return
				}
				last := -1
				for i, r := range tl.results {
					probe := max(arrival[0][r.R.Seq], arrival[1][r.S.Seq])
					if probe < last {
						t.Fatalf("result %d was probed by input %d, after a result of input %d", i, probe, last)
					}
					last = probe
				}
			})
		}
	}
}
