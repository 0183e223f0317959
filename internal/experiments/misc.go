package experiments

import (
	"fmt"
	"strings"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/fqp"
	"accelstream/internal/hwjoin"
	"accelstream/internal/landscape"
	"accelstream/internal/stream"
	"accelstream/internal/synth"
)

// Fig6Table regenerates Figure 6 as a table: the reconfiguration pipeline of
// a common FPGA-based solution versus FQP, for the paper's Figure 7 query.
func Fig6Table() (string, error) {
	fab, err := fqp.NewFabric(4)
	if err != nil {
		return "", err
	}
	plan := fqp.Join("product_id", "product_id", stream.CmpEQ, 1536,
		fqp.Select("age", stream.CmpGT, 25, fqp.Leaf("customer")),
		fqp.Leaf("product"))
	asn, err := fab.AssignQuery("fig7-q1", plan)
	if err != nil {
		return "", err
	}
	conv := fqp.ConventionalFlow()
	dyn, err := fqp.FQPFlow(asn, 100)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	b.WriteString("fig6 — Standard vs flexible query-execution pipeline on a reconfigurable fabric\n")
	rows := [][]string{{"approach", "step", "duration", "halts processing"}}
	for _, p := range []fqp.ReconfigPipeline{conv, dyn} {
		for _, s := range p.Steps {
			halt := "no"
			if s.HaltsProcessing {
				halt = "YES"
			}
			rows = append(rows, []string{p.Approach, s.Name, fmt.Sprintf("%v ~ %v", s.Min, s.Max), halt})
		}
		rows = append(rows, []string{p.Approach, "TOTAL", fmt.Sprintf("%v ~ %v", p.TotalMin(), p.TotalMax()), ""})
	}
	writeAligned(&b, rows)
	fmt.Fprintf(&b, "note: conservative speedup (conventional best case vs FQP worst case): %.2e×\n", fqp.Speedup(conv, dyn))
	return b.String(), nil
}

// HwVsSw regenerates the Section V cross-platform claims: hardware versus
// software throughput at the same window size (the paper reports ≈15× for
// W=2^18 with 512 hardware cores vs 28 software cores), and the roughly
// two-orders-of-magnitude latency gap.
func HwVsSw(opt Options) (string, error) {
	window := 1 << 18
	if opt.Quick {
		window = 1 << 16
	}

	hwMtps, rep, err := hwThroughput(core.UniFlow, 512, window, hwjoin.Scalable, synth.Virtex7VX485T, opt)
	if err != nil {
		return "", err
	}
	swMeasure, swBurst := 4096, 512
	if opt.Quick {
		swMeasure, swBurst = 1024, 64
	}
	swMtps, _, err := swThroughput(28, window, 0, swMeasure, stream.KernelScan, opt)
	if err != nil {
		return "", err
	}

	hwCycles, err := hwLatency(512, window, hwjoin.Scalable, opt)
	if err != nil {
		return "", err
	}
	hwLatUs := float64(hwCycles) / rep.OperatingMHz
	swLat, _, err := swProbeLatency(28, window, 8, swBurst, 0, opt)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "hwsw — Hardware (V7, 512 cores, %0.f MHz) vs software (28 cores), W=2^%d\n", rep.OperatingMHz, log2(window))
	rows := [][]string{
		{"metric", "hardware", "software", "ratio"},
		{"input throughput (M tuples/s)", formatNum(hwMtps), formatNum(swMtps), fmt.Sprintf("%.1f×", hwMtps/swMtps)},
		{"latency", fmt.Sprintf("%.1f µs", hwLatUs), fmt.Sprintf("%.1f µs", float64(swLat.Microseconds())), fmt.Sprintf("%.0f×", float64(swLat.Microseconds())/hwLatUs)},
	}
	writeAligned(&b, rows)
	b.WriteString("note: paper reports ≈15× throughput (vs its 2.7 GHz Xeon testbed) and ≈2 orders of magnitude latency; software absolute numbers depend on this host\n")
	return b.String(), nil
}

// FanoutAblation explores the paper's suggestion that DNode fan-outs larger
// than 1→2 "could be interesting to explore since they reduce the height of
// the distribution network and lower communication latency".
func FanoutAblation(opt Options) (Figure, error) {
	fig := Figure{
		ID:     "fanout",
		Title:  "Ablation: DNode fan-out vs single-tuple latency (V7s, 256 cores, W=2^13)",
		XLabel: "DNode fan-out",
		YLabel: "latency (cycles)",
	}
	const (
		cores  = 256
		window = 1 << 13
	)
	s := Series{Label: "scalable network"}
	d := Series{Label: "distribution stages"}
	for _, fanout := range []int{2, 4, 8} {
		probeDone := false
		gen := func() (hwjoin.Flit, bool) {
			if probeDone {
				return hwjoin.Flit{}, false
			}
			probeDone = true
			return hwjoin.TupleFlit(stream.SideR, stream.Tuple{Key: 42}), true
		}
		des, err := hwjoin.BuildUniFlow(hwjoin.UniFlowConfig{
			NumCores:   cores,
			WindowSize: window,
			Network:    hwjoin.Scalable,
			Fanout:     fanout,
		}, false, gen)
		if err != nil {
			return Figure{}, err
		}
		sTuples := make([]stream.Tuple, window)
		for i := range sTuples {
			sTuples[i] = stream.Tuple{Key: 0xE0000000 + uint32(i), Seq: uint64(i)}
		}
		sTuples[window/2] = stream.Tuple{Key: 42, Seq: uint64(window / 2)}
		if err := des.Preload(nil, sTuples); err != nil {
			return Figure{}, err
		}
		cycles, err := des.RunToQuiescence(1_000_000)
		if err != nil {
			return Figure{}, err
		}
		s.Points = append(s.Points, Point{X: float64(fanout), Y: float64(cycles)})
		d.Points = append(d.Points, Point{X: float64(fanout), Y: float64(des.DistributionStages())})
	}
	fig.Series = append(fig.Series, s, d)
	fig.Notes = append(fig.Notes,
		"larger fan-out shortens the distribution tree; electrical fan-out costs would eventually push Fmax down (not modelled per-fan-out)")
	return fig, nil
}

// LandscapeReport renders the Section II artefacts: the Figure 4 system
// registry and a worked active-data-path placement example.
func LandscapeReport() (string, error) {
	var b strings.Builder
	b.WriteString("landscape — Figure 4 design-space registry\n")
	rows := [][]string{{"system", "deployment", "representation", "parallelism"}}
	for _, e := range landscape.Registry() {
		var pats []string
		for _, p := range e.Parallelism {
			pats = append(pats, p.String())
		}
		rows = append(rows, []string{e.Name, e.Deployment.String(), e.Representation.String(), strings.Join(pats, ", ")})
	}
	writeAligned(&b, rows)

	b.WriteString("\nactive data path — placement of a 1% -selective filter over 10 GB\n")
	path := landscape.Path{Stages: []landscape.Stage{
		{Name: "edge switch (FPGA)", BandwidthMBps: 1200, ComputeMBps: 4000},
		{Name: "storage node (FPGA)", BandwidthMBps: 500, ComputeMBps: 2500},
		{Name: "destination host (CPU)", BandwidthMBps: 3000, ComputeMBps: 1500},
	}}
	placements, err := landscape.EvaluatePlacements(path, 10_000, 0.01)
	if err != nil {
		return "", err
	}
	rows = [][]string{{"placement", "model", "time (s)", "data moved (GB)"}}
	for _, pl := range placements {
		rows = append(rows, []string{
			pl.Stage, pl.Model.String(),
			fmt.Sprintf("%.2f", pl.TimeSeconds),
			fmt.Sprintf("%.2f", pl.BytesMoved/1e9),
		})
	}
	writeAligned(&b, rows)
	best, err := landscape.Best(placements)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "best placement: %s (%s), saving %.0f%% of data movement\n",
		best.Stage, best.Model, 100*landscape.DataReduction(placements, best))

	b.WriteString("\nFigure 1 technology outlook — recommendations\n")
	rows = [][]string{{"working point", "recommended (most specialized first)"}}
	for _, wp := range []struct {
		name    string
		latency time.Duration
		bytes   uint64
	}{
		{"50 µs over 1 GB", 50 * time.Microsecond, 1 << 30},
		{"10 ms over 1 GB", 10 * time.Millisecond, 1 << 30},
		{"10 s over 4 TB", 10 * time.Second, 4 << 40},
		{"1 h over 1 PB", time.Hour, 1 << 50},
	} {
		recs := landscape.Recommend(wp.latency, wp.bytes)
		var names []string
		for _, r := range recs {
			names = append(names, r.String())
		}
		rows = append(rows, []string{wp.name, strings.Join(names, ", ")})
	}
	writeAligned(&b, rows)
	return b.String(), nil
}
