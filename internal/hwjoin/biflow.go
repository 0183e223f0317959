package hwjoin

import (
	"fmt"

	"accelstream/internal/core"
	"accelstream/internal/hwsim"
	"accelstream/internal/stream"
)

// BiFlowConfig parameterizes a bi-flow (handshake join / OP-Chain) hardware
// design.
type BiFlowConfig struct {
	// NumCores is the length of the join-core chain.
	NumCores int
	// WindowSize is the total per-stream window; it must divide evenly
	// across the cores.
	WindowSize int
	// Condition is the join condition (programmed at synthesis time; the
	// bi-flow baseline has no online operator programming).
	Condition stream.JoinCondition
	// Network selects the result gathering network. Defaults to Lightweight
	// (the configuration used for the paper's Virtex-5 comparison).
	Network NetworkKind
	// FIFODepth is the depth of ingress and result FIFOs. Defaults to 2.
	FIFODepth int
	// DecodeCycles is the per-tuple instruction/header decode overhead of
	// the general OP-Block fabric the chain is built from. Defaults to 2.
	DecodeCycles int
	// FastForward enables the low-latency handshake join variant ([36],
	// Section III): "each tuple of each stream is replicated and forwarded
	// to the next join core before the join computation is carried out".
	// Tuples are stored at their entry core and a replica sweeps the chain
	// scanning every core's opposite segment in a pipeline, so a tuple's
	// full result set completes in ≈N hops + one sub-window scan instead of
	// waiting for ≈W subsequent arrivals to push it through the chain.
	FastForward bool
	// MemStallCycles is the number of cycles one window-buffer read takes
	// through the coordinator-arbitrated shared memory port. The uni-flow
	// core reads its dedicated BRAM once per cycle; the bi-flow core's
	// single port is shared between the two buffer managers, the transfer
	// circuitry, and the processing unit. Defaults to 7 (calibrated so the
	// uni-flow/bi-flow throughput gap lands at the paper's reported
	// "nearly an order of magnitude", Figure 14b; see EXPERIMENTS.md).
	MemStallCycles int
}

func (cfg *BiFlowConfig) applyDefaults() {
	if cfg.FIFODepth == 0 {
		cfg.FIFODepth = 2
	}
	if cfg.Network == 0 {
		cfg.Network = Lightweight
	}
	if cfg.DecodeCycles == 0 {
		cfg.DecodeCycles = 2
	}
	if cfg.MemStallCycles == 0 {
		cfg.MemStallCycles = 7
	}
	if cfg.Condition == (stream.JoinCondition{}) {
		cfg.Condition = stream.EquiJoinOnKey()
	}
}

// Validate checks the configuration.
func (cfg BiFlowConfig) Validate() error {
	if cfg.NumCores <= 0 {
		return fmt.Errorf("hwjoin: bi-flow NumCores must be positive, got %d", cfg.NumCores)
	}
	p := core.Partition{NumCores: cfg.NumCores, Position: 0}
	if _, err := p.SubWindowSize(cfg.WindowSize); err != nil {
		return err
	}
	if err := cfg.Condition.Validate(); err != nil {
		return err
	}
	if cfg.DecodeCycles < 1 {
		return fmt.Errorf("hwjoin: bi-flow DecodeCycles must be at least 1, got %d", cfg.DecodeCycles)
	}
	if cfg.MemStallCycles < 1 {
		return fmt.Errorf("hwjoin: bi-flow MemStallCycles must be at least 1, got %d", cfg.MemStallCycles)
	}
	return nil
}

// BiFlowDesign is a built bi-flow parallel stream join: a splitter feeding
// the two chain ends, the linear chain of join cores connected by
// coordinated links, expiry reapers at both ends, and a result gathering
// network (Figure 8a).
type BiFlowDesign struct {
	cfg   BiFlowConfig
	sim   *hwsim.Simulator
	src   *Source
	sink  *Sink
	cores []*BiCore
	gath  *gatheringNet

	ingress  *hwsim.FIFO[Flit]
	rIngress *hwsim.FIFO[Flit]
	sIngress *hwsim.FIFO[Flit]
	reaperR  *reaper
	reaperS  *reaper
	repFIFOs []*hwsim.FIFO[stream.Tuple]

	subWindow int
}

// BuildBiFlow constructs the design around the given input generator.
func BuildBiFlow(cfg BiFlowConfig, keepResults bool, next func() (Flit, bool)) (*BiFlowDesign, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	subWindow := cfg.WindowSize / cfg.NumCores

	d := &BiFlowDesign{cfg: cfg, sim: &hwsim.Simulator{}, subWindow: subWindow}

	for i := 0; i < cfg.NumCores; i++ {
		c := NewBiCore(i, subWindow, cfg.FIFODepth, cfg.DecodeCycles, cfg.MemStallCycles, cfg.Condition)
		c.fastForward = cfg.FastForward
		d.cores = append(d.cores, c)
	}

	// Ingress plumbing: source → splitter → chain-end FIFOs.
	d.ingress = hwsim.NewFIFO[Flit]("bi.ingress", cfg.FIFODepth)
	d.rIngress = hwsim.NewFIFO[Flit]("bi.rIngress", cfg.FIFODepth)
	d.sIngress = hwsim.NewFIFO[Flit]("bi.sIngress", cfg.FIFODepth)
	split := &splitter{in: d.ingress, outR: d.rIngress, outS: d.sIngress}

	// Links: N+1 of them; link i sits left of core i. The outermost links
	// carry ingress inward and expiry outward.
	links := make([]*biLink, cfg.NumCores+1)
	for i := range links {
		links[i] = &biLink{name: fmt.Sprintf("link%d", i)}
		// Interior links of a fast-forward chain carry the replica sweeps.
		if cfg.FastForward && i > 0 && i < cfg.NumCores {
			links[i].repR = hwsim.NewFIFO[stream.Tuple](fmt.Sprintf("link%d.repR", i), cfg.FIFODepth)
			links[i].repS = hwsim.NewFIFO[stream.Tuple](fmt.Sprintf("link%d.repS", i), cfg.FIFODepth)
			d.repFIFOs = append(d.repFIFOs, links[i].repR, links[i].repS)
		}
	}
	for i, c := range d.cores {
		c.left = links[i]
		c.right = links[i+1]
	}
	// S tuples enter at the far left and R tuples at the far right.
	links[0].inS = ingressPort{fifo: d.sIngress}
	links[cfg.NumCores].inR = ingressPort{fifo: d.rIngress}
	d.cores[0].entryTaps = append(d.cores[0].entryTaps, entryTap{fifo: d.sIngress, side: stream.SideS})
	last := d.cores[cfg.NumCores-1]
	last.entryTaps = append(last.entryTaps, entryTap{fifo: d.rIngress, side: stream.SideR})
	// Interior directions are fed by the neighbouring cores' segments.
	for i, c := range d.cores {
		links[i+1].inS = segmentPort{core: c, side: stream.SideS} // S leaves rightward
		links[i].inR = segmentPort{core: c, side: stream.SideR}   // R leaves leftward
	}
	// Expiry: R falls off the far left, S off the far right.
	d.reaperR = &reaper{name: "reaperR", link: links[0], side: stream.SideR}
	d.reaperS = &reaper{name: "reaperS", link: links[cfg.NumCores], side: stream.SideS}

	results := make([]*hwsim.FIFO[stream.Result], cfg.NumCores)
	for i, c := range d.cores {
		results[i] = c.Results()
	}
	gath, err := buildGathering(cfg.Network, results, cfg.FIFODepth)
	if err != nil {
		return nil, err
	}
	d.gath = gath

	d.src = NewSource(d.ingress, d.sim.Cycle, next)
	d.sink = NewSink(gath.egress, d.sim.Cycle, keepResults)

	d.sim.Add(d.src, split)
	for _, c := range d.cores {
		d.sim.Add(c)
	}
	d.sim.Add(d.reaperR, d.reaperS)
	d.sim.Add(gath.comps...)
	d.sim.Add(d.sink)
	d.sim.AddState(d.ingress, d.rIngress, d.sIngress)
	for _, f := range d.repFIFOs {
		d.sim.AddState(f)
	}
	for _, c := range d.cores {
		d.sim.AddState(c.Results())
	}
	d.sim.AddState(gath.fifos...)
	return d, nil
}

// Sim exposes the underlying simulator.
func (d *BiFlowDesign) Sim() *hwsim.Simulator { return d.sim }

// Source exposes the test-bench source.
func (d *BiFlowDesign) Source() *Source { return d.src }

// Sink exposes the test-bench sink.
func (d *BiFlowDesign) Sink() *Sink { return d.sink }

// Cores exposes the join cores.
func (d *BiFlowDesign) Cores() []*BiCore { return d.cores }

// SubWindowSize returns the nominal per-core per-stream segment size.
func (d *BiFlowDesign) SubWindowSize() int { return d.subWindow }

// Expired returns how many tuples have fallen off each end of the chain.
func (d *BiFlowDesign) Expired() (r, s uint64) { return d.reaperR.done, d.reaperS.done }

// Preload fills the chain's segments as if the tuples had flowed through:
// for S, the newest tuples sit in core 0 (the entry end) and the oldest in
// core NumCores-1; for R the arrangement mirrors. Tuples are in arrival
// order (index 0 oldest) and at most WindowSize per stream are kept.
func (d *BiFlowDesign) Preload(r, s []stream.Tuple) error {
	n := d.cfg.NumCores
	w := d.subWindow
	if len(r) > d.cfg.WindowSize {
		r = r[len(r)-d.cfg.WindowSize:]
	}
	if len(s) > d.cfg.WindowSize {
		s = s[len(s)-d.cfg.WindowSize:]
	}
	// Walk from the oldest end of the chain toward the entry end.
	for p := 0; p < n; p++ {
		// For S: core (n-1-p) holds the p-th oldest chunk.
		lo := p * w
		hi := lo + w
		if lo < len(s) {
			if hi > len(s) {
				hi = len(s)
			}
			if err := d.cores[n-1-p].Preload(stream.SideS, s[lo:hi]); err != nil {
				return err
			}
		}
		// For R: core p holds the p-th oldest chunk (entry at the right).
		if lo < len(r) {
			hiR := hi
			if hiR > len(r) {
				hiR = len(r)
			}
			if err := d.cores[p].Preload(stream.SideR, r[lo:hiR]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Quiescent reports whether no work is in flight anywhere.
func (d *BiFlowDesign) Quiescent() bool {
	if !d.src.Exhausted() {
		return false
	}
	if d.ingress.Len() > 0 || d.rIngress.Len() > 0 || d.sIngress.Len() > 0 {
		return false
	}
	for _, c := range d.cores {
		if !c.Idle() || c.Results().Len() > 0 {
			return false
		}
	}
	for _, f := range d.repFIFOs {
		if f.Len() > 0 {
			return false
		}
	}
	for _, f := range d.gath.fifos {
		if rf, ok := f.(*hwsim.FIFO[stream.Result]); ok && rf.Len() > 0 {
			return false
		}
	}
	return true
}

// RunToQuiescence steps the simulation until Quiescent, with a cycle budget.
func (d *BiFlowDesign) RunToQuiescence(maxCycles uint64) (uint64, error) {
	return d.sim.RunUntil(maxCycles, d.Quiescent)
}

// MeasureThroughput drives the design for warmup cycles, then measures
// injected input tuples over measure cycles.
func (d *BiFlowDesign) MeasureThroughput(warmup, measure uint64) ThroughputMeasurement {
	return measureThroughput(d.sim, d.src, d.sink, warmup, measure)
}
