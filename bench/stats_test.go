package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 1..100, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if v[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// prints, which is what the benchmark driver computes its spread from.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{3.1, 2.2, 9.5, 4.4, 7.0, 1.0, 8.8, 5.5, 6.1, 2.9}, 2.725, 7.45},
		{[]float64{10, 12}, 9.5, 12.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7}, 2, 6},
	} {
		q1, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	v := []float64{3.1, 2.2, 9.5, 4.4, 7.0, 1.0, 8.8, 5.5, 6.1, 2.9}
	if got, want := spread(v), (7.45-2.725)/4.95; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
}

func TestSlicePercentiles(t *testing.T) {
	// Two slices over [0, 10): the first holds 1..4, the second only 100;
	// a sample stamped past the end lands in the last slice.
	samples := []sample{{0.1, 1}, {1, 2}, {2, 3}, {4.9, 4}, {5, 100}, {11, 100}}
	got := slicePercentiles(samples, 10, 2, 50)
	if len(got) != 2 || got[0] != 2 || got[1] != 100 {
		t.Errorf("slice medians = %v, want [2 100]", got)
	}
	// An empty slice is left out instead of reading as zero.
	got = slicePercentiles([]sample{{9, 7}}, 10, 5, 99)
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("sparse slices = %v, want [7]", got)
	}
}
