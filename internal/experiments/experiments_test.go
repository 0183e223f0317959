package experiments

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

var quick = Options{Quick: true, Seed: 42}

func TestFigureRenderAndCSV(t *testing.T) {
	fig := Figure{
		ID: "t", Title: "test", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "a", Points: []Point{{X: 1, Y: 2}, {X: 2, Missing: true, Note: "why"}}},
			{Label: "b,c", Points: []Point{{X: 1, Y: 3.5}}},
		},
		Notes: []string{"hello"},
	}
	out := fig.Render()
	for _, want := range []string{"t — test", "n/a (why)", "hello", "3.500"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q:\n%s", want, out)
		}
	}
	csv := fig.CSV()
	if !strings.Contains(csv, `"b,c"`) {
		t.Errorf("CSV() did not escape the comma label:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "x,a,") {
		t.Errorf("CSV() header wrong:\n%s", csv)
	}
}

func TestSeriesValueAt(t *testing.T) {
	s := Series{Points: []Point{{X: 2, Y: 7}, {X: 3, Missing: true}}}
	if v, ok := s.ValueAt(2); !ok || v != 7 {
		t.Errorf("ValueAt(2) = %v, %v", v, ok)
	}
	if _, ok := s.ValueAt(3); ok {
		t.Error("ValueAt on missing point reported ok")
	}
	if _, ok := s.ValueAt(9); ok {
		t.Error("ValueAt on absent x reported ok")
	}
}

// TestFig14aShape: linear scaling in cores at fixed window on the
// simulated Virtex-5, and the paper's feasibility holes.
func TestFig14aShape(t *testing.T) {
	fig, err := Fig14a(quick)
	if err != nil {
		t.Fatal(err)
	}
	s13, ok := fig.SeriesByLabel("W=2^13")
	if !ok {
		t.Fatal("missing W=2^13 series")
	}
	y2, ok2 := s13.ValueAt(2)
	y16, ok16 := s13.ValueAt(16)
	if !ok2 || !ok16 {
		t.Fatal("missing 2- or 16-core points")
	}
	speedup := y16 / y2
	if math.Abs(speedup-8) > 1.2 {
		t.Errorf("16-core speedup over 2 cores = %.2f, want ≈8 (linear)", speedup)
	}
	// Paper absolute anchor: 16 cores at W=2^13, 100 MHz → ≈0.195 M tuples/s.
	if math.Abs(y16-0.195) > 0.03 {
		t.Errorf("16 cores @ 2^13 = %.3f M tuples/s, want ≈0.195", y16)
	}
	for _, x := range []float64{32, 64} {
		if _, ok := s13.ValueAt(x); ok {
			t.Errorf("W=2^13 should be infeasible at %v cores", x)
		}
	}
	s11, _ := fig.SeriesByLabel("W=2^11")
	if _, ok := s11.ValueAt(64); !ok {
		t.Error("W=2^11 must be feasible at 64 cores")
	}
}

// TestFig14bShape: uni-flow ≈ an order of magnitude over bi-flow; bi-flow
// infeasible at 2^13.
func TestFig14bShape(t *testing.T) {
	fig, err := Fig14b(quick)
	if err != nil {
		t.Fatal(err)
	}
	uni, _ := fig.SeriesByLabel("uni-flow")
	bi, _ := fig.SeriesByLabel("bi-flow")
	u, okU := uni.ValueAt(11)
	b, okB := bi.ValueAt(11)
	if !okU || !okB {
		t.Fatal("missing 2^11 points")
	}
	ratio := u / b
	if ratio < 6 || ratio > 18 {
		t.Errorf("uni/bi ratio at 2^11 = %.1f, want ≈10", ratio)
	}
	if _, ok := bi.ValueAt(13); ok {
		t.Error("bi-flow should be infeasible at 2^13")
	}
	if _, ok := uni.ValueAt(13); !ok {
		t.Error("uni-flow must be feasible at 2^13")
	}
}

// TestFig14cShape: absolute anchors from the paper's 300 MHz Virtex-7 run:
// ≈75 M tuples/s at W=2^11 and ≈0.59 at W=2^18 with 512 cores.
func TestFig14cShape(t *testing.T) {
	fig, err := Fig14c(quick)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := fig.SeriesByLabel("JCs: 512")
	y11, ok := s.ValueAt(11)
	if !ok {
		t.Fatal("missing 2^11 point")
	}
	if math.Abs(y11-75) > 12 {
		t.Errorf("W=2^11 throughput = %.1f M tuples/s, want ≈75 (300 MHz / 4-deep sub-window)", y11)
	}
	y18, ok := s.ValueAt(18)
	if !ok {
		t.Fatal("missing 2^18 point")
	}
	if math.Abs(y18-0.586) > 0.1 {
		t.Errorf("W=2^18 throughput = %.3f M tuples/s, want ≈0.586", y18)
	}
}

// TestFig15Shape: scan-dominated cycle counts; the lightweight variant's
// frequency drop makes its absolute latency worse at scale.
func TestFig15Shape(t *testing.T) {
	cycles, micros, err := Fig15(quick)
	if err != nil {
		t.Fatal(err)
	}
	v7c, _ := cycles.SeriesByLabel("W=2^18 (V7)")
	c1, ok := v7c.ValueAt(1)
	if !ok {
		t.Fatal("missing 2-core V7 point")
	}
	// 2 cores → sub-window 2^17 = 131072 scan cycles dominate.
	if c1 < 131072 || c1 > 131072*1.1 {
		t.Errorf("2-core latency = %.0f cycles, want ≈131072 (scan-dominated)", c1)
	}
	lightU, _ := micros.SeriesByLabel("W=2^18 (V7)")
	scalU, _ := micros.SeriesByLabel("W=2^18 (V7s)")
	l9, okL := lightU.ValueAt(9)
	s9, okS := scalU.ValueAt(9)
	if !okL || !okS {
		t.Fatal("missing 512-core latency points")
	}
	if l9 <= s9 {
		t.Errorf("lightweight latency %.1fµs should exceed scalable %.1fµs at 512 cores (clock drop)", l9, s9)
	}
	// Two-order-of-magnitude span from 2 cores to 512 cores (V7s): the
	// paper's figure spans ≈10^5 down to ≈10^2–10^3 cycles.
	sc, _ := cycles.SeriesByLabel("W=2^18 (V7s)")
	c9, _ := sc.ValueAt(9)
	cs1, _ := sc.ValueAt(1)
	if cs1/c9 < 50 {
		t.Errorf("V7s latency should shrink ≈2 orders of magnitude from 2 to 512 cores; got %.0f → %.0f", cs1, c9)
	}
}

// TestFig17Shape is covered in synth's own tests; here we just confirm the
// runner produces all three series over the full sweep.
func TestFig17Series(t *testing.T) {
	fig, err := Fig17(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("got %d series, want 3", len(fig.Series))
	}
	v7, _ := fig.SeriesByLabel("W=2^18 (V7)")
	if len(v7.Points) != 9 {
		t.Errorf("V7 series has %d points, want 9 (2..512 cores)", len(v7.Points))
	}
	v5, _ := fig.SeriesByLabel("W=2^13 (V5)")
	if len(v5.Points) != 4 {
		t.Errorf("V5 series has %d points, want 4 (2..16 cores)", len(v5.Points))
	}
}

// TestPowerTable: the calibrated Section V numbers.
func TestPowerTable(t *testing.T) {
	fig, err := PowerTable(quick)
	if err != nil {
		t.Fatal(err)
	}
	uni, _ := fig.SeriesByLabel("uni-flow")
	bi, _ := fig.SeriesByLabel("bi-flow")
	u := uni.Points[0].Y
	b := bi.Points[0].Y
	if math.Abs(u-800.35) > 16 || math.Abs(b-1647.53) > 33 {
		t.Errorf("power = %.2f / %.2f mW, want ≈800.35 / ≈1647.53", u, b)
	}
}

// TestFig14dShape: software throughput falls roughly inversely with the
// window size. (Core-count scaling needs a multicore host; this container
// may have a single CPU, so only the window shape is asserted.)
func TestFig14dShape(t *testing.T) {
	if testing.Short() {
		t.Skip("software throughput sweep in -short mode")
	}
	fig, err := Fig14d(quick)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := fig.SeriesByLabel("JCs: 16")
	if !ok {
		t.Fatal("missing JCs: 16 series")
	}
	y16, ok16 := s.ValueAt(16)
	y20, ok20 := s.ValueAt(20)
	if !ok16 || !ok20 {
		t.Fatal("missing window points")
	}
	t.Logf("16 JCs: 2^16 → %.4f, 2^20 → %.4f M tuples/s (%.1fx)", y16, y20, y16/y20)
	if y20 >= y16 {
		t.Errorf("throughput should fall with window: 2^16 → %.4f, 2^20 → %.4f", y16, y20)
	}
	// 16× window growth should cost roughly an order of magnitude.
	if y16/y20 < 4 {
		t.Errorf("throughput ratio 2^16/2^20 = %.1f, want ≳8 (∝ 1/W)", y16/y20)
	}
}

// TestFig16Shape: latency grows with the window under load.
func TestFig16Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("software latency sweep in -short mode")
	}
	fig, err := Fig16(quick)
	if err != nil {
		t.Fatal(err)
	}
	small, _ := fig.SeriesByLabel("W=2^17")
	large, _ := fig.SeriesByLabel("W=2^19")
	y17, ok17 := small.ValueAt(20)
	y19, ok19 := large.ValueAt(20)
	if !ok17 || !ok19 {
		t.Fatal("missing points")
	}
	if y19 <= y17 {
		t.Errorf("latency should grow with window: 2^17 → %.2fms, 2^19 → %.2fms", y17, y19)
	}
}

func TestFig6Table(t *testing.T) {
	out, err := Fig6Table()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"synthesize", "halt", "map new operators", "TOTAL", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig6Table missing %q:\n%s", want, out)
		}
	}
}

func TestHwVsSw(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-platform comparison in -short mode")
	}
	out, err := HwVsSw(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "throughput") || !strings.Contains(out, "latency") {
		t.Errorf("HwVsSw output incomplete:\n%s", out)
	}
}

func TestFanoutAblation(t *testing.T) {
	fig, err := FanoutAblation(quick)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := fig.SeriesByLabel("scalable network")
	y2, _ := s.ValueAt(2)
	y8, _ := s.ValueAt(8)
	if y8 >= y2 {
		t.Errorf("fan-out 8 latency %.0f should beat fan-out 2 latency %.0f (shallower tree)", y8, y2)
	}
	d, _ := fig.SeriesByLabel("distribution stages")
	st2, _ := d.ValueAt(2)
	st8, _ := d.ValueAt(8)
	if st2 != 8 || st8 != 3 {
		t.Errorf("stages = %v/%v for fan-out 2/8, want 8/3 over 256 cores", st2, st8)
	}
}

func TestLandscapeReport(t *testing.T) {
	out, err := LandscapeReport()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"FQP", "parametrized topology", "best placement", "FPGA"} {
		if !strings.Contains(out, want) {
			t.Errorf("LandscapeReport missing %q", want)
		}
	}
	t.Logf("GOMAXPROCS for context: %d", runtime.GOMAXPROCS(0))
}

// TestLoadLatencyShape: queueing pushes latency up as the offered load
// approaches saturation.
func TestLoadLatencyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("paced latency sweep in -short mode")
	}
	fig, err := LoadLatency(quick)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	low, okL := s.ValueAt(25)
	high, okH := s.ValueAt(200)
	if !okL || !okH {
		t.Fatal("missing load points")
	}
	if high < low {
		t.Errorf("latency under sustained overload (%.0fµs) below 25%% load (%.0fµs); queueing should dominate", high, low)
	}
}

// TestLatencyByArchitectureShape: the Section III narrative — classic
// bi-flow strands most of a probe's matches; the low-latency variant
// completes them in N hops + one scan; uni-flow completes fastest.
func TestLatencyByArchitectureShape(t *testing.T) {
	fig, err := LatencyByArchitecture(quick)
	if err != nil {
		t.Fatal(err)
	}
	cycles, _ := fig.SeriesByLabel("cycles to quiescence")
	found := fig.Series[1]
	classicFound, _ := found.ValueAt(1)
	llhsFound, _ := found.ValueAt(2)
	uniFound, _ := found.ValueAt(3)
	if classicFound >= llhsFound {
		t.Errorf("classic chain found %v matches, low-latency found %v; classic should strand most", classicFound, llhsFound)
	}
	if llhsFound != uniFound {
		t.Errorf("low-latency (%v) and uni-flow (%v) must both complete the window", llhsFound, uniFound)
	}
	uniCycles, _ := cycles.ValueAt(3)
	llhsCycles, _ := cycles.ValueAt(2)
	if uniCycles >= llhsCycles {
		t.Errorf("uni-flow completion (%v cycles) should beat the low-latency chain (%v)", uniCycles, llhsCycles)
	}
}

// TestShardScaleShape: quick-mode sharded-deployment sweep. The shape is
// asserted on work counters, which are deterministic for the seed: every
// shard ingests the full broadcast stream (server-side tuples summed over
// shards = N × input), and splitting the window changes no result (the
// merged count is identical at every shard count). The measured rates
// only have to be positive, with aggregate = N × ingest by construction.
func TestShardScaleShape(t *testing.T) {
	fig, runs, err := shardScale(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		if want := uint64(run.shards * run.tuples); run.ingested != want {
			t.Errorf("%d shards ingested %d tuples server-side, want N × input = %d", run.shards, run.ingested, want)
		}
		if run.results != runs[0].results {
			t.Errorf("%d shards merged %d results, %d shards merged %d", run.shards, run.results, runs[0].shards, runs[0].results)
		}
	}
	agg, ok := fig.SeriesByLabel("aggregate processed (sum over shards)")
	if !ok {
		t.Fatal("missing aggregate series")
	}
	ing, ok := fig.SeriesByLabel("router ingest (input rate)")
	if !ok {
		t.Fatal("missing ingest series")
	}
	for _, p := range agg.Points {
		if p.Y <= 0 {
			t.Fatalf("non-positive throughput at %v shards", p.X)
		}
		iv, ok := ing.ValueAt(p.X)
		if !ok {
			t.Fatalf("no ingest point at %v shards", p.X)
		}
		if want := iv * p.X; math.Abs(p.Y-want)/want > 1e-9 {
			t.Errorf("aggregate at %v shards is %v, want N×ingest = %v", p.X, p.Y, want)
		}
	}
}

// TestElasticShape: quick-mode live-resize run — every layout must report
// a positive steady rate, both transitions must complete with state
// actually migrated, and the pause must be a measurable non-negative
// cost.
func TestElasticShape(t *testing.T) {
	fig, err := Elastic(quick)
	if err != nil {
		t.Fatal(err)
	}
	steady, ok := fig.SeriesByLabel("steady ingest (tuples/s)")
	if !ok {
		t.Fatal("missing steady series")
	}
	for _, n := range []float64{2, 4, 8} {
		v, ok := steady.ValueAt(n)
		if !ok || v <= 0 {
			t.Errorf("no positive steady rate at %v shards (got %v)", n, v)
		}
	}
	migrated, ok := fig.SeriesByLabel("window tuples migrated")
	if !ok {
		t.Fatal("missing migrated series")
	}
	for _, n := range []float64{4, 8} {
		v, ok := migrated.ValueAt(n)
		if !ok || v <= 0 {
			t.Errorf("transition to %v shards migrated %v tuples, want > 0", n, v)
		}
	}
	pause, ok := fig.SeriesByLabel("rebalance pause (ms)")
	if !ok {
		t.Fatal("missing pause series")
	}
	for _, n := range []float64{4, 8} {
		if v, ok := pause.ValueAt(n); !ok || v < 0 {
			t.Errorf("no pause measurement at %v shards (got %v)", n, v)
		}
	}
}

func TestRecoveryShape(t *testing.T) {
	fig, err := Recovery(quick)
	if err != nil {
		t.Fatal(err)
	}
	restored, ok := fig.SeriesByLabel("checkpointed restart (ms)")
	if !ok {
		t.Fatal("missing checkpointed-restart series")
	}
	cold, ok := fig.SeriesByLabel("cold restart, full replay (ms)")
	if !ok {
		t.Fatal("missing cold-restart series")
	}
	for _, w := range []float64{1 << 10, 1 << 12} {
		r, ok := restored.ValueAt(w)
		if !ok || r <= 0 {
			t.Errorf("no checkpointed restart time at window %v (got %v)", w, r)
		}
		c, ok := cold.ValueAt(w)
		if !ok || c <= 0 {
			t.Errorf("no cold restart time at window %v (got %v)", w, c)
		}
	}
	size, ok := fig.SeriesByLabel("snapshot size (bytes)")
	if !ok {
		t.Fatal("missing snapshot-size series")
	}
	// Snapshot size must grow with the window: it carries the window image.
	small, _ := size.ValueAt(1 << 10)
	large, _ := size.ValueAt(1 << 12)
	if !(large > small && small > 0) {
		t.Errorf("snapshot sizes do not grow with window: %v -> %v", small, large)
	}
}

func TestAutoscaleShape(t *testing.T) {
	fig, err := Autoscale(quick)
	if err != nil {
		t.Fatal(err)
	}
	shards, ok := fig.SeriesByLabel("shards")
	if !ok {
		t.Fatal("missing shards series")
	}
	// The trajectory must visit 1, 4, and end back at 1.
	var saw4 bool
	for _, p := range shards.Points {
		if p.Y == 4 {
			saw4 = true
		}
	}
	if !saw4 {
		t.Errorf("deployment never reached 4 shards: %+v", shards.Points)
	}
	if last := shards.Points[len(shards.Points)-1]; last.Y != 1 {
		t.Errorf("deployment ended at %v shards, want 1", last.Y)
	}
	spacing, ok := fig.SeriesByLabel("action spacing (ms)")
	if !ok {
		t.Fatal("missing spacing series")
	}
	// 1->4->1 takes six actions, so at least five inter-action gaps, each
	// at least the policy cooldown (150ms).
	if len(spacing.Points) < 5 {
		t.Fatalf("only %d inter-action gaps, want >= 5", len(spacing.Points))
	}
	for _, p := range spacing.Points {
		if p.Y < 150 {
			t.Errorf("actions %vms apart, cooldown is 150ms", p.Y)
		}
	}
	if _, ok := fig.SeriesByLabel("rebalance pause (ms)"); !ok {
		t.Error("missing pause series")
	}
}
