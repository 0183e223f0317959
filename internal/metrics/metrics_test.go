package metrics

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestFamilyAndUnlabelledHelpers(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	w.Counter("x_total", "Things seen.", uint64(3))
	w.Gauge("y", "Level.", 7)
	w.Family("z", "gauge", `Back\slash and`+"\n"+`newline, "quotes" kept.`)
	want := "# HELP x_total Things seen.\n# TYPE x_total counter\nx_total 3\n" +
		"# HELP y Level.\n# TYPE y gauge\ny 7\n" +
		"# HELP z Back\\\\slash and\\nnewline, \"quotes\" kept.\n# TYPE z gauge\n"
	if got := b.String(); got != want {
		t.Errorf("got\n%s\nwant\n%s", got, want)
	}
}

func TestSampleValues(t *testing.T) {
	for _, tc := range []struct {
		value any
		want  string
	}{
		{0, "0"},
		{42, "42"},
		{-7, "-7"},
		{int64(-1 << 40), "-1099511627776"},
		{uint64(1<<64 - 1), "18446744073709551615"},
		{float64(-1), "-1"},
		{0.25, "0.25"},
		{-0.0015, "-0.0015"},
		{1.5e-7, "1.5e-07"},
		{2e21, "2e+21"},
		{true, "1"},
		{false, "0"},
	} {
		var b strings.Builder
		NewWriter(&b).Sample("m", tc.value)
		if got, want := b.String(), "m "+tc.want+"\n"; got != want {
			t.Errorf("Sample(%T %v) = %q, want %q", tc.value, tc.value, got, want)
		}
		// Every numeric form is the one the hand-written %v lines printed.
		if _, isBool := tc.value.(bool); !isBool && fmt.Sprint(tc.value) != tc.want {
			t.Errorf("%T %v: %%v prints %q, the writer %q", tc.value, tc.value, fmt.Sprint(tc.value), tc.want)
		}
	}
}

func TestSampleLabels(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	w.Sample("m", 1, "a", "plain", "b", `back\slash`, "c", `say "hi"`, "d", "two\nlines")
	w.Sample("m", 2, "only", "")
	want := `m{a="plain",b="back\\slash",c="say \"hi\"",d="two\nlines"} 1` + "\n" + `m{only=""} 2` + "\n"
	if got := b.String(); got != want {
		t.Errorf("got\n%s\nwant\n%s", got, want)
	}
	// On printable ASCII the three escapes are exactly what %q produced.
	for _, v := range []string{"plain", `back\slash`, `say "hi"`, "127.0.0.1:7801", "token-0a1b2c"} {
		b.Reset()
		w.Sample("m", 1, "l", v)
		if want := fmt.Sprintf("m{l=%q} 1\n", v); b.String() != want {
			t.Errorf("label %q: got %q, %%q gives %q", v, b.String(), want)
		}
	}
}

func TestSampleRejectsUnsupportedValue(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a string sample value did not panic")
		}
	}()
	NewWriter(&strings.Builder{}).Sample("m", "1")
}

// TestHistogramGolden pins a histogram's exposition byte for byte: the
// bucket bounds, the cumulative counts, the edges of each bucket (a bound
// belongs to its own bucket), the overflow bucket, and the labels before
// le.
func TestHistogramGolden(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{
		-time.Second,               // counts as 0: le 1e-06
		0,                          // le 1e-06
		time.Microsecond,           // le 1e-06
		time.Microsecond + 1,       // le 2e-06
		4 * time.Microsecond,       // le 4e-06
		4*time.Microsecond + 1,     // le 8e-06
		time.Millisecond,           // le 0.001024
		4194304 * time.Microsecond, // the last bound
		5 * time.Second,            // +Inf
	} {
		h.Observe(d)
	}
	var b strings.Builder
	w := NewWriter(&b)
	w.Family("op_seconds", "histogram", "Time per op.")
	w.Histogram("op_seconds", &h, "tenant", "a")
	want := `# HELP op_seconds Time per op.
# TYPE op_seconds histogram
op_seconds_bucket{tenant="a",le="1e-06"} 3
op_seconds_bucket{tenant="a",le="2e-06"} 4
op_seconds_bucket{tenant="a",le="4e-06"} 5
op_seconds_bucket{tenant="a",le="8e-06"} 6
op_seconds_bucket{tenant="a",le="1.6e-05"} 6
op_seconds_bucket{tenant="a",le="3.2e-05"} 6
op_seconds_bucket{tenant="a",le="6.4e-05"} 6
op_seconds_bucket{tenant="a",le="0.000128"} 6
op_seconds_bucket{tenant="a",le="0.000256"} 6
op_seconds_bucket{tenant="a",le="0.000512"} 6
op_seconds_bucket{tenant="a",le="0.001024"} 7
op_seconds_bucket{tenant="a",le="0.002048"} 7
op_seconds_bucket{tenant="a",le="0.004096"} 7
op_seconds_bucket{tenant="a",le="0.008192"} 7
op_seconds_bucket{tenant="a",le="0.016384"} 7
op_seconds_bucket{tenant="a",le="0.032768"} 7
op_seconds_bucket{tenant="a",le="0.065536"} 7
op_seconds_bucket{tenant="a",le="0.131072"} 7
op_seconds_bucket{tenant="a",le="0.262144"} 7
op_seconds_bucket{tenant="a",le="0.524288"} 7
op_seconds_bucket{tenant="a",le="1.048576"} 7
op_seconds_bucket{tenant="a",le="2.097152"} 7
op_seconds_bucket{tenant="a",le="4.194304"} 8
op_seconds_bucket{tenant="a",le="+Inf"} 9
op_seconds_sum{tenant="a"} 9.195314002
op_seconds_count{tenant="a"} 9
`
	if got := b.String(); got != want {
		t.Errorf("got\n%s\nwant\n%s", got, want)
	}
	// Unlabelled, an empty histogram still writes every bucket.
	b.Reset()
	w.Histogram("empty_seconds", &Histogram{})
	if got := b.String(); !strings.HasPrefix(got, `empty_seconds_bucket{le="1e-06"} 0`+"\n") ||
		!strings.HasSuffix(got, `empty_seconds_bucket{le="+Inf"} 0`+"\nempty_seconds_sum 0\nempty_seconds_count 0\n") {
		t.Errorf("empty histogram:\n%s", got)
	}
}

func TestHistogramObserveAllocFree(t *testing.T) {
	var h Histogram
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(37 * time.Microsecond) }); allocs != 0 {
		t.Errorf("Observe: %v allocs, want 0", allocs)
	}
}
