package softjoin

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"accelstream/internal/core"
	"accelstream/internal/stream"
	"accelstream/internal/workload"
)

// benchCore builds one warm softCore whose opposite window is full, with
// roughly one match per `selInv` stored tuples for probe key 7.
func benchCore(window, selInv int, kernel stream.ProbeKernel) *softCore {
	cfg := Config{NumCores: 1, WindowSize: window, ProbeKernel: kernel}
	cfg.applyDefaults()
	c := newCore(cfg, 0)
	for i := 0; i < window; i++ {
		c.store(stream.SideS, stream.Tuple{Key: uint32(7 + (i%selInv)*1000), Val: uint32(i)})
	}
	return c
}

// BenchmarkProbe sweeps the two probe kernels across window sizes and
// selectivities on identical window contents: the hash kernel's O(matches)
// lookups against the block-scan kernel's O(W) two-level sweep. The scan
// kernel also runs a hit-density axis — from no hit anywhere (level 1
// dismisses every block) to a hit in every lane (level 1 is pure overhead
// and every tuple is materialized) — so its best and worst case sit side
// by side.
func BenchmarkProbe(b *testing.B) {
	run := func(name string, window, selInv int, kernel stream.ProbeKernel, key uint32) {
		b.Run(name, func(b *testing.B) {
			c := benchCore(window, selInv, kernel)
			probe := stream.Tuple{Key: key}
			out := coreBatches.Get()
			var work uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out.Results = out.Results[:0]
				work += c.probe(probe, stream.SideR, out)
			}
			b.StopTimer()
			b.ReportMetric(float64(work)/float64(b.N), "comparisons/op")
			b.ReportMetric(float64(len(out.Results)), "results/op")
			if kernel == stream.KernelScan {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(work), "ns/word")
			}
			out.Release()
		})
	}
	// The hash kernel at the benchmark workloads' per-core shape (2 cores
	// over W = 2^16): a key no stored tuple carries, and one about five
	// stored tuples carry.
	run("W=32768/hits=none/hash", 1<<15, 1<<15/5+1, stream.KernelHash, 8)
	run("W=32768/hits=5/hash", 1<<15, 1<<15/5+1, stream.KernelHash, 7)
	for _, window := range []int{1 << 10, 1 << 13, 1 << 16} {
		for _, selInv := range []int{16, 256, 4096} {
			if selInv > window {
				continue
			}
			for _, kernel := range []stream.ProbeKernel{stream.KernelHash, stream.KernelScan} {
				run(fmt.Sprintf("W=%d/sel=1-%d/%s", window, selInv, kernel), window, selInv, kernel, 7)
			}
		}
		for _, d := range []struct {
			name   string
			selInv int
			key    uint32
		}{
			{"none", stream.BlockBits, 8}, // key 8 is never stored
			{"1-per-window", window, 7},
			{"1-per-block", stream.BlockBits, 7},
			{"every-lane", 1, 7},
		} {
			run(fmt.Sprintf("W=%d/hits=%s/scan", window, d.name), window, d.selInv, stream.KernelScan, d.key)
		}
	}
}

// TestProbeAllocFree pins the emit-path acceptance criterion for both
// kernels: a probe into a warm result batch — matches included — performs zero
// heap allocations. For the hash kernel this covers the index lookup and
// the match scratch; for the scan kernel the bitmask sweep.
func TestProbeAllocFree(t *testing.T) {
	for _, kernel := range []stream.ProbeKernel{stream.KernelHash, stream.KernelScan} {
		t.Run(kernel.String(), func(t *testing.T) {
			c := benchCore(1<<10, 64, kernel)
			probe := stream.Tuple{Key: 7}
			out := coreBatches.Get()
			// Warm the batch (and match scratch) to steady-state capacity.
			c.probe(probe, stream.SideR, out)
			allocs := testing.AllocsPerRun(100, func() {
				out.Results = out.Results[:0]
				c.probe(probe, stream.SideR, out)
			})
			out.Release()
			if allocs != 0 {
				t.Fatalf("%v probe into warm batch: %v allocs/probe, want 0", kernel, allocs)
			}
		})
	}
}

// TestStoreAllocFree: the hash kernel's index maintenance adds no
// steady-state allocation to the store path either — inserts (with
// expiry and periodic index rebuilds) stay alloc-free.
func TestStoreAllocFree(t *testing.T) {
	c := benchCore(1<<10, 64, stream.KernelHash)
	var k uint32
	allocs := testing.AllocsPerRun(5000, func() {
		c.store(stream.SideS, stream.Tuple{Key: k % 512, Val: k})
		k++
	})
	if allocs != 0 {
		t.Fatalf("hash-kernel store: %v allocs/insert, want 0", allocs)
	}
}

// TestHashCoreFootprint pins the hash engine's resident state at the
// ingest_small_batch shape (2 cores, W = 2^16): four sub-window rings of
// 2^15 tuples (24 B each) and four key indexes of 2^17 packed 8-byte
// slots make 7 MiB, and no word column is built for a kernel that never
// sweeps one. Everything the engine allocates at construction counts.
func TestHashCoreFootprint(t *testing.T) {
	const budgetMiB = 7.5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e, err := NewUniFlow(Config{NumCores: 2, WindowSize: 1 << 16, ProbeKernel: stream.KernelHash})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(e)
	got := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	if got > budgetMiB {
		t.Fatalf("NewUniFlow allocated %.2f MiB, budget %.2f MiB", got, budgetMiB)
	}
	t.Logf("NewUniFlow allocated %.2f MiB", got)
}

// BenchmarkUniFlowPush is the whole-pipeline hand-off benchmark: pooled
// input batches in, slab emission out, at a selectivity where the emit
// path carries real traffic, then the per-push cost across batch sizes at
// the small-batch ingest shape and at the result-heavy shape.
func BenchmarkUniFlowPush(b *testing.B) {
	for _, ordered := range []bool{false, true} {
		name := "relaxed"
		if ordered {
			name = "ordered"
		}
		for _, kernel := range []stream.ProbeKernel{stream.KernelHash, stream.KernelScan} {
			b.Run(fmt.Sprintf("%s/%s", name, kernel), func(b *testing.B) {
				const window = 1 << 12
				e, err := NewUniFlow(Config{NumCores: 4, WindowSize: window, OrderedResults: ordered, ProbeKernel: kernel})
				if err != nil {
					b.Fatal(err)
				}
				if err := e.Start(); err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range e.Results() {
					}
				}()
				const batchSize = 256
				batch := make([]core.Input, batchSize) // reused: PushBatch copies
				for i := range batch {
					side := stream.SideR
					if i%2 == 1 {
						side = stream.SideS
					}
					// Key domain 4096 over a 4096 window: ~1 match per probe.
					batch[i] = core.Input{Side: side, Tuple: stream.Tuple{Key: uint32(i * 37 % 4096)}}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.PushBatch(batch)
				}
				if err := e.Close(); err != nil {
					b.Fatal(err)
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "tuples/s")
			})
		}
	}
	// The small-batch ingest shape (the ingest_small_batch benchmark
	// workload's engine): 2 cores, W = 2^16, disjoint keys so no probe
	// matches, swept over the batch size. The ns/tuple curve is the fixed
	// per-push hand-off amortized over the batch; the server session's
	// mergeBelow is read off it.
	for _, batchSize := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("disjoint/W=65536/batch=%d", batchSize), func(b *testing.B) {
			benchPushShape(b, workload.Spec{Seed: 1, Dist: workload.Disjoint, KeyDomain: 1 << 16}, batchSize, false)
		})
	}
	// The result_heavy benchmark workload's engine: 2 cores, W = 2^16,
	// uniform keys over W/10, so a probe into the preloaded full window
	// matches about 10 stored tuples.
	b.Run("uniform/W=65536/batch=1024", func(b *testing.B) {
		benchPushShape(b, workload.Spec{Seed: 1, Dist: workload.Uniform, KeyDomain: (1 << 16) / 10}, 1024, true)
	})
}

// benchPushShape pushes spec's arrivals in batchSize pieces into a 2-core
// W = 2^16 engine whose output is drained batch-wise, as a server session
// drains it, and reports ns/tuple; full preloads both windows first.
func benchPushShape(b *testing.B, spec workload.Spec, batchSize int, full bool) {
	const window = 1 << 16
	gen, err := workload.NewGenerator(spec)
	if err != nil {
		b.Fatal(err)
	}
	inputs := gen.Take(window) // a whole number of batches at every size
	e, err := NewUniFlow(Config{NumCores: 2, WindowSize: window})
	if err != nil {
		b.Fatal(err)
	}
	if full {
		r, s, err := workload.WindowFill(spec, window)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Preload(r, s); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Start(); err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for rb := range e.Batches() {
			rb.Release()
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i * batchSize % len(inputs)
		e.PushBatch(inputs[off : off+batchSize])
	}
	if err := e.Close(); err != nil {
		b.Fatal(err)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchSize), "ns/tuple")
}

// BenchmarkBiFlowPush is the handshake chain's whole-pipeline benchmark:
// 4 cores over W = 1024, both windows preloaded, tuples pushed one at a
// time (as the server's adaptor pushes them) on alternating sides over
// 256 keys, so each tuple meets about W/256 = 4 matches on its way along
// the chain. The output is drained batch-wise, as a server session
// drains it.
func BenchmarkBiFlowPush(b *testing.B) {
	const (
		cores  = 4
		window = 1 << 10
		keys   = 256
	)
	key := func(i int) uint32 { return uint32(i*37) % keys }
	fill := make([]stream.Tuple, window)
	for i := range fill {
		fill[i] = stream.Tuple{Key: key(i)}
	}
	e, err := NewBiFlow(Config{NumCores: cores, WindowSize: window})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Preload(fill, fill); err != nil {
		b.Fatal(err)
	}
	if err := e.Start(); err != nil {
		b.Fatal(err)
	}
	var results int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for rb := range e.Batches() {
			results += len(rb.Results)
			rb.Release()
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		side := stream.SideR
		if i%2 == 1 {
			side = stream.SideS
		}
		e.Push(side, stream.Tuple{Key: key(i / 2)})
	}
	if err := e.Close(); err != nil {
		b.Fatal(err)
	}
	<-done
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tuple")
	b.ReportMetric(float64(results)/float64(b.N), "results/tuple")
}
