package metrics

import (
	"fmt"
	"strings"
	"testing"
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
