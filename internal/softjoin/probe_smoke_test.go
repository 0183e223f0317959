package softjoin

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"accelstream/internal/stream"
)

// TestHashKernelOutpacesScan pins the point of the hash kernel: on the
// equi-join workload at W=2^14, over identical window contents, both
// kernels emit the same matches while the index walks only its key's
// chain and the scan sweeps all 2^14 window words. The assertion is on
// the work each probe reports (what Comparisons() counts), which is exact
// for a given window: wall time is not, and under -race the index is
// instrumented Go while the scan's AVX2 lanes are assembly the detector
// does not slow. The best-of-three wall-time ratio is logged for
// `make bench-probe`.
func TestHashKernelOutpacesScan(t *testing.T) {
	const (
		window = 1 << 14
		selInv = 256
		probes = 2000
	)
	run := func(kernel stream.ProbeKernel) (work uint64, matches []stream.Result, best time.Duration) {
		c := benchCore(window, selInv, kernel)
		probe := stream.Tuple{Key: 7}
		out := coreBatches.Get()
		defer out.Release()
		// The first probe also warms caches and scratch before timing.
		work = c.probe(probe, stream.SideR, out)
		matches = slices.Clone(out.Results)
		slices.SortFunc(matches, func(a, b stream.Result) int { return cmp.Compare(a.S.Val, b.S.Val) })
		best = time.Duration(1 << 62)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			for i := 0; i < probes; i++ {
				out.Results = out.Results[:0]
				c.probe(probe, stream.SideR, out)
			}
			best = min(best, time.Since(start))
		}
		return work, matches, best
	}
	hashWork, hashMatches, hash := run(stream.KernelHash)
	scanWork, scanMatches, scan := run(stream.KernelScan)
	t.Logf("W=2^14, %d probes: hash %v, scan %v (%.1fx); work per probe: hash %d, scan %d (%.0fx)",
		probes, hash, scan, float64(scan)/float64(hash), hashWork, scanWork, float64(scanWork)/float64(hashWork))
	if len(hashMatches) != window/selInv || !slices.Equal(hashMatches, scanMatches) {
		t.Fatalf("kernels disagree: hash matched %d tuples, scan %d, want %d each and the same ones", len(hashMatches), len(scanMatches), window/selInv)
	}
	if scanWork != window {
		t.Fatalf("scan swept %d words per probe, want the whole window (%d)", scanWork, window)
	}
	if hashWork*32 > scanWork {
		t.Fatalf("hash kernel examined %d index entries per probe, want at most 1/32 of the scan's %d words", hashWork, scanWork)
	}
}
