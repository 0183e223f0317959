package hwjoin

import (
	"accelstream/internal/hwsim"
	"accelstream/internal/stream"
)

// Source injects flits into the design's ingress FIFO, one per cycle when
// the ingress accepts. It pulls flits from a generator function so that
// unbounded saturation workloads do not need to be materialized. Source is
// a test-bench construct, not part of the synthesized design.
type Source struct {
	out  *hwsim.FIFO[Flit]
	next func() (Flit, bool)

	pending    *Flit
	exhausted  bool
	injected   uint64
	injectedAt map[uint64]uint64 // tuple Seq -> cycle injected (probe support)
	clock      func() uint64
	trackSeqs  bool
}

// NewSource builds a source feeding out from the generator. clock returns
// the current simulation cycle and is used to timestamp injections when
// tracking is enabled.
func NewSource(out *hwsim.FIFO[Flit], clock func() uint64, next func() (Flit, bool)) *Source {
	return &Source{out: out, next: next, clock: clock, injectedAt: make(map[uint64]uint64)}
}

// TrackInjections enables per-tuple injection timestamps (used by latency
// probes; disabled by default to keep throughput runs allocation-free).
func (s *Source) TrackInjections(on bool) { s.trackSeqs = on }

// Injected returns how many flits have been pushed into the ingress.
func (s *Source) Injected() uint64 { return s.injected }

// Exhausted reports whether the generator has run out and everything was
// injected.
func (s *Source) Exhausted() bool { return s.exhausted && s.pending == nil }

// Reopen clears the exhausted latch so the generator is polled again on the
// next cycle. Streaming adapters (internal/server) use it to run the design
// to quiescence between replenishments of an otherwise-empty generator.
func (s *Source) Reopen() { s.exhausted = false }

// InjectionCycle returns when the tuple with the given sequence number was
// injected. Valid only when tracking is enabled.
func (s *Source) InjectionCycle(seq uint64) (uint64, bool) {
	c, ok := s.injectedAt[seq]
	return c, ok
}

// Name implements hwsim.Component.
func (s *Source) Name() string { return "source" }

// Eval implements hwsim.Component.
func (s *Source) Eval() {
	if s.pending == nil && !s.exhausted {
		f, ok := s.next()
		if !ok {
			s.exhausted = true
		} else {
			s.pending = &f
		}
	}
	if s.pending == nil || !s.out.CanPush() {
		return
	}
	s.out.Push(*s.pending)
	if s.trackSeqs && s.pending.Header != stream.HeaderOperator {
		s.injectedAt[s.pending.Tuple.Seq] = s.clock()
	}
	s.pending = nil
	s.injected++
}

// Commit implements hwsim.Component.
func (s *Source) Commit() {}

// Sink drains the design's egress result FIFO and records what it saw.
// Like Source, it is a test-bench construct.
type Sink struct {
	in        *hwsim.FIFO[stream.Result]
	clock     func() uint64
	results   []stream.Result
	lastCycle uint64
	drained   uint64
	keep      bool
}

// NewSink builds a sink draining in. When keep is true the sink retains
// every result for correctness checking; throughput runs set keep=false and
// only count.
func NewSink(in *hwsim.FIFO[stream.Result], clock func() uint64, keep bool) *Sink {
	return &Sink{in: in, clock: clock, keep: keep}
}

// Name implements hwsim.Component.
func (k *Sink) Name() string { return "sink" }

// Eval implements hwsim.Component.
func (k *Sink) Eval() {
	if !k.in.CanPop() {
		return
	}
	r := k.in.Pop()
	k.drained++
	k.lastCycle = k.clock()
	if k.keep {
		k.results = append(k.results, r)
	}
}

// Commit implements hwsim.Component.
func (k *Sink) Commit() {}

// Drained returns how many results the sink consumed.
func (k *Sink) Drained() uint64 { return k.drained }

// LastResultCycle returns the cycle at which the most recent result arrived.
func (k *Sink) LastResultCycle() uint64 { return k.lastCycle }

// Results returns the recorded results (empty unless keep was set).
func (k *Sink) Results() []stream.Result { return k.results }

// Take hands over the results recorded since the last Take and forgets
// them. The returned slice is valid until the sink next evaluates, so a
// caller draining the sink between simulation runs retains nothing.
func (k *Sink) Take() []stream.Result {
	r := k.results
	k.results = k.results[:0]
	return r
}
