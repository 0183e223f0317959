package metrics

import (
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

// histBounds is the number of finite histogram buckets: upper bounds of
// 1 µs · 2^i for i = 0 … histBounds-1, from 1 µs to about 4.2 s.
const histBounds = 23

// Histogram counts durations into fixed log₂ buckets from 1 µs to about
// 4.2 s, plus an overflow bucket, and sums them. Observe is safe for
// concurrent use and allocates nothing; the zero value is ready.
type Histogram struct {
	counts [histBounds + 1]atomic.Uint64 // the last one is +Inf
	sumNs  atomic.Uint64
}

// Observe records one duration; a negative one counts as 0.
func (h *Histogram) Observe(d time.Duration) {
	ns := max(int64(d), 0)
	// The bucket whose bound is the smallest 1 µs · 2^i ≥ d: i is the bit
	// length of ⌈d / 1 µs⌉ − 1.
	i := 0
	if us := (ns + 999) / 1000; us > 1 {
		i = min(bits.Len64(uint64(us-1)), histBounds)
	}
	h.counts[i].Add(1)
	h.sumNs.Add(uint64(ns))
}

// Histogram writes h's samples in the family name, which the caller opens
// with Family(name, "histogram", help): one cumulative name_bucket line
// per bound, labelled le in seconds and ending at +Inf, then name_sum in
// seconds and name_count. labelPairs, as for Sample, go before le.
func (w *Writer) Histogram(name string, h *Histogram, labelPairs ...string) {
	labels := append(labelPairs[:len(labelPairs):len(labelPairs)], "le", "")
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < histBounds {
			le = strconv.FormatFloat(float64(uint64(1)<<i)*1e-6, 'g', -1, 64)
		}
		labels[len(labels)-1] = le
		w.Sample(name+"_bucket", cum, labels...)
	}
	w.Sample(name+"_sum", float64(h.sumNs.Load())/1e9, labelPairs...)
	w.Sample(name+"_count", cum, labelPairs...)
}
