package hwjoin

import (
	"fmt"

	"accelstream/internal/core"
	"accelstream/internal/hwsim"
	"accelstream/internal/stream"
)

// UniFlowConfig parameterizes a uni-flow (SplitJoin) hardware design.
type UniFlowConfig struct {
	// NumCores is the number of join cores.
	NumCores int
	// WindowSize is the total per-stream sliding window size; it must
	// divide evenly across the cores.
	WindowSize int
	// Network selects lightweight or scalable distribution and gathering.
	Network NetworkKind
	// Fanout is the DNode fan-out of the scalable distribution network.
	// Defaults to 2 (the paper's 1→2 configuration).
	Fanout int
	// Condition is the join condition programmed at build time.
	Condition stream.JoinCondition
	// FIFODepth is the depth of every pipeline FIFO. Defaults to 2 (skid
	// buffer: sustains one transfer per cycle).
	FIFODepth int
	// Algorithm selects the join cores' algorithm. Defaults to NestedLoop
	// (the paper's measured configuration); HashJoin requires the equi-join
	// on key.
	Algorithm JoinAlgorithm
}

func (cfg *UniFlowConfig) applyDefaults() {
	if cfg.Fanout == 0 {
		cfg.Fanout = 2
	}
	if cfg.FIFODepth == 0 {
		cfg.FIFODepth = 2
	}
	if cfg.Network == 0 {
		cfg.Network = Scalable
	}
	if cfg.Condition == (stream.JoinCondition{}) {
		cfg.Condition = stream.EquiJoinOnKey()
	}
	if cfg.Algorithm == 0 {
		cfg.Algorithm = NestedLoop
	}
}

// Validate checks the configuration.
func (cfg UniFlowConfig) Validate() error {
	if cfg.NumCores <= 0 {
		return fmt.Errorf("hwjoin: uni-flow NumCores must be positive, got %d", cfg.NumCores)
	}
	if cfg.Algorithm == HashJoin && cfg.Condition != stream.EquiJoinOnKey() {
		return fmt.Errorf("hwjoin: hash-join cores support only the equi-join on key, got %s", cfg.Condition)
	}
	p := core.Partition{NumCores: cfg.NumCores, Position: 0}
	if _, err := p.SubWindowSize(cfg.WindowSize); err != nil {
		return err
	}
	if err := cfg.Condition.Validate(); err != nil {
		return err
	}
	return nil
}

// UniFlowDesign is a built uni-flow parallel stream join: distribution
// network → join cores → result gathering network (Figure 9), plus a
// test-bench source and sink.
type UniFlowDesign struct {
	cfg   UniFlowConfig
	sim   *hwsim.Simulator
	src   *Source
	sink  *Sink
	cores []*UniCore
	dist  *distributionNet
	gath  *gatheringNet

	flitFIFOs   []*hwsim.FIFO[Flit]
	resultFIFOs []*hwsim.FIFO[stream.Result]
	subWindow   int
}

// BuildUniFlow constructs the design. next generates the input flit stream
// (operator flits may appear mid-stream to reprogram the cores at runtime);
// keepResults selects whether the sink records results for verification.
//
// The join operator derived from cfg.Condition is programmed into all cores
// before any generated flit is delivered, so the caller's stream may consist
// purely of tuples.
func BuildUniFlow(cfg UniFlowConfig, keepResults bool, next func() (Flit, bool)) (*UniFlowDesign, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	subWindow := cfg.WindowSize / cfg.NumCores

	d := &UniFlowDesign{cfg: cfg, sim: &hwsim.Simulator{}, subWindow: subWindow}

	fetchers := make([]*hwsim.FIFO[Flit], cfg.NumCores)
	results := make([]*hwsim.FIFO[stream.Result], cfg.NumCores)
	for i := 0; i < cfg.NumCores; i++ {
		c := NewUniCoreWithAlgorithm(i, subWindow, cfg.FIFODepth, cfg.Algorithm)
		d.cores = append(d.cores, c)
		fetchers[i] = c.Fetcher()
		results[i] = c.Results()
	}

	dist, err := buildDistribution(cfg.Network, cfg.Fanout, fetchers, cfg.FIFODepth)
	if err != nil {
		return nil, err
	}
	gath, err := buildGathering(cfg.Network, results, cfg.FIFODepth)
	if err != nil {
		return nil, err
	}
	d.dist, d.gath = dist, gath

	// Prepend the join operator instruction to the caller's stream.
	op := stream.JoinOperator{NumCores: cfg.NumCores, Condition: cfg.Condition}
	programmed := false
	gen := func() (Flit, bool) {
		if !programmed {
			programmed = true
			return OperatorFlit(op), true
		}
		return next()
	}
	d.src = NewSource(dist.ingress, d.sim.Cycle, gen)
	d.sink = NewSink(gath.egress, d.sim.Cycle, keepResults)

	// Register everything with the simulator.
	d.sim.Add(d.src)
	d.sim.Add(dist.comps...)
	for _, c := range d.cores {
		d.sim.Add(c)
	}
	d.sim.Add(gath.comps...)
	d.sim.Add(d.sink)
	d.sim.AddState(dist.fifos...)
	d.sim.AddState(gath.fifos...)
	for _, c := range d.cores {
		d.sim.AddState(c.Fetcher(), c.Results())
		d.flitFIFOs = append(d.flitFIFOs, c.Fetcher())
		d.resultFIFOs = append(d.resultFIFOs, c.Results())
	}
	return d, nil
}

// Sim exposes the underlying simulator.
func (d *UniFlowDesign) Sim() *hwsim.Simulator { return d.sim }

// Source exposes the test-bench source.
func (d *UniFlowDesign) Source() *Source { return d.src }

// Sink exposes the test-bench sink.
func (d *UniFlowDesign) Sink() *Sink { return d.sink }

// Cores exposes the join cores (read-only use).
func (d *UniFlowDesign) Cores() []*UniCore { return d.cores }

// SubWindowSize returns the per-core, per-stream sub-window capacity.
func (d *UniFlowDesign) SubWindowSize() int { return d.subWindow }

// DistributionStages returns the pipeline depth of the distribution network.
func (d *UniFlowDesign) DistributionStages() int { return d.dist.stages }

// GatheringStages returns the pipeline depth of the gathering network.
func (d *UniFlowDesign) GatheringStages() int { return d.gath.stages }

// DNodes returns the number of DNodes (0 for the lightweight network).
func (d *UniFlowDesign) DNodes() int { return d.dist.nodes }

// GNodes returns the number of GNodes (0 for the lightweight network).
func (d *UniFlowDesign) GNodes() int { return d.gath.nodes }

// Preload fills the cores' sub-windows with the most recent WindowSize (or
// fewer) tuples of each stream, distributed round-robin exactly as the
// storage cores would have, without spending simulation cycles. The tuples
// must be in arrival order; element i of r/s is treated as the i-th arrival
// of that stream.
func (d *UniFlowDesign) Preload(r, s []stream.Tuple) error {
	n := d.cfg.NumCores
	perCoreR := make([][]stream.Tuple, n)
	perCoreS := make([][]stream.Tuple, n)
	for i, t := range r {
		perCoreR[i%n] = append(perCoreR[i%n], t)
	}
	for i, t := range s {
		perCoreS[i%n] = append(perCoreS[i%n], t)
	}
	for p, c := range d.cores {
		cr, cs := perCoreR[p], perCoreS[p]
		// Keep only the most recent subWindow tuples of this core's class.
		if len(cr) > d.subWindow {
			cr = cr[len(cr)-d.subWindow:]
		}
		if len(cs) > d.subWindow {
			cs = cs[len(cs)-d.subWindow:]
		}
		if err := c.Preload(cr, cs, uint64(len(r)), uint64(len(s))); err != nil {
			return fmt.Errorf("hwjoin: preload core %d: %w", p, err)
		}
	}
	return nil
}

// Quiescent reports whether no work is in flight anywhere: the source is
// exhausted, every FIFO is empty, and every core is idle.
func (d *UniFlowDesign) Quiescent() bool {
	if !d.src.Exhausted() {
		return false
	}
	if d.dist.ingress.Len() > 0 || d.gath.egress.Len() > 0 {
		return false
	}
	for _, f := range d.flitFIFOs {
		if f.Len() > 0 {
			return false
		}
	}
	for _, f := range d.resultFIFOs {
		if f.Len() > 0 {
			return false
		}
	}
	for _, c := range d.cores {
		if !c.Idle() {
			return false
		}
	}
	return d.distEmpty() && d.gathEmpty()
}

func (d *UniFlowDesign) distEmpty() bool {
	for _, f := range d.dist.fifos {
		if lf, ok := f.(*hwsim.FIFO[Flit]); ok && lf.Len() > 0 {
			return false
		}
	}
	return true
}

func (d *UniFlowDesign) gathEmpty() bool {
	for _, f := range d.gath.fifos {
		if rf, ok := f.(*hwsim.FIFO[stream.Result]); ok && rf.Len() > 0 {
			return false
		}
	}
	return true
}

// RunToQuiescence steps the simulation until Quiescent, with a cycle budget.
func (d *UniFlowDesign) RunToQuiescence(maxCycles uint64) (uint64, error) {
	return d.sim.RunUntil(maxCycles, d.Quiescent)
}

// AttachDefaultProbes registers the design's headline signals with a VCD
// tracer: cumulative tuples injected and results drained, the ingress FIFO
// occupancy, a busy bit per join core (up to 64), and core 0's window fill.
func (d *UniFlowDesign) AttachDefaultProbes(tr *hwsim.Tracer) error {
	if err := tr.Probe("injected", 32, func() uint64 { return d.src.Injected() }); err != nil {
		return err
	}
	if err := tr.Probe("drained", 32, func() uint64 { return d.sink.Drained() }); err != nil {
		return err
	}
	if err := tr.Probe("ingress_len", 8, func() uint64 { return uint64(d.dist.ingress.Len()) }); err != nil {
		return err
	}
	width := len(d.cores)
	if width > 64 {
		width = 64
	}
	if err := tr.Probe("cores_busy", width, func() uint64 {
		var bits uint64
		for i := 0; i < width; i++ {
			if !d.cores[i].Idle() {
				bits |= 1 << i
			}
		}
		return bits
	}); err != nil {
		return err
	}
	return tr.Probe("jc0_window_r", 24, func() uint64 { return uint64(d.cores[0].windowR.Len()) })
}

// ThroughputMeasurement is the outcome of a saturated input-throughput run.
type ThroughputMeasurement struct {
	WarmupCycles   uint64
	MeasureCycles  uint64
	TuplesInjected uint64 // during the measurement phase
	ResultsDrained uint64 // during the measurement phase
}

// TuplesPerCycle returns the measured input throughput in tuples per clock
// cycle; multiply by the clock frequency for absolute throughput.
func (m ThroughputMeasurement) TuplesPerCycle() float64 {
	if m.MeasureCycles == 0 {
		return 0
	}
	return float64(m.TuplesInjected) / float64(m.MeasureCycles)
}

// measureThroughput runs sim for warmup cycles, then counts the tuples src
// injects and the results sink drains over measure cycles.
func measureThroughput(sim *hwsim.Simulator, src *Source, sink *Sink, warmup, measure uint64) ThroughputMeasurement {
	sim.Run(warmup)
	startIn := src.Injected()
	startOut := sink.Drained()
	sim.Run(measure)
	return ThroughputMeasurement{
		WarmupCycles:   warmup,
		MeasureCycles:  measure,
		TuplesInjected: src.Injected() - startIn,
		ResultsDrained: sink.Drained() - startOut,
	}
}

// MeasureThroughput drives the design with its generator for warmup cycles,
// then measures injected input tuples over measure cycles.
func (d *UniFlowDesign) MeasureThroughput(warmup, measure uint64) ThroughputMeasurement {
	return measureThroughput(d.sim, d.src, d.sink, warmup, measure)
}
