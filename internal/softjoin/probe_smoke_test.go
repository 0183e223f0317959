package softjoin

import (
	"testing"
	"time"

	"accelstream/internal/stream"
)

// TestHashKernelOutpacesScan pins the point of the hash kernel: on the
// equi-join workload at W=2^14 the indexed probe must answer the same
// probe load in less wall time than the block scan. Both kernels run
// over identical window contents and emit the same match set; the scan
// sweeps all 2^14 window words per probe while the index walks only its
// key's chain. Best-of-three per kernel absorbs scheduler noise — the
// measured gap is ≈14× (≈37× before the scan kernel's two-level sweep), so
// the strict comparison is still conservative.
func TestHashKernelOutpacesScan(t *testing.T) {
	const (
		window = 1 << 14
		selInv = 256
		probes = 2000
	)
	run := func(kernel stream.ProbeKernel) time.Duration {
		c := benchCore(window, selInv, kernel)
		probe := stream.Tuple{Key: 7}
		out := coreBatches.Get()
		defer out.Release()
		// Warm caches and scratch buffers before timing.
		out.Results = out.Results[:0]
		c.probe(probe, stream.SideR, out)
		best := time.Duration(1 << 62)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			for i := 0; i < probes; i++ {
				out.Results = out.Results[:0]
				c.probe(probe, stream.SideR, out)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	hash := run(stream.KernelHash)
	scan := run(stream.KernelScan)
	t.Logf("W=2^14, %d probes: hash %v, scan %v (%.1fx)", probes, hash, scan, float64(scan)/float64(hash))
	if hash >= scan {
		t.Fatalf("hash kernel (%v) not faster than block scan (%v) on the equi workload at W=2^14", hash, scan)
	}
}
