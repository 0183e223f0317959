package main

import (
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"accelstream"
)

// tracer instruments a traced run from the benchmark's own files: the
// streamd tier is hosted in the harness process behind a net.Listener
// whose connections count bytes and time blocked, and behind an engine
// decorator that stamps PushBatch and the moment a marker's result leaves
// the engine. Every stamp is on one monotonic clock. A nil tracer is an
// untraced run through the real daemons. A tracer with off set hosts the
// tier the same way but instruments nothing: the run that tracing
// overhead is measured against.
type tracer struct {
	epoch time.Time
	off   bool

	// Per-marker stamps, nanoseconds after epoch plus one (0 = unset).
	due, sendEnd, engineOut, popped []atomic.Int64
	pushIn                          [shards][]atomic.Int64 // PushBatch entry, per shard
	outShard                        []atomic.Int32         // which shard emitted the marker's result

	// Per-shard totals since the tracer was built.
	readWait, writeBusy, pushBusy [shards]atomic.Int64 // nanoseconds
	bytesIn, bytesOut             [shards]atomic.Int64
	conns                         [shards]atomic.Int64
}

func newTracer(markerCap int) *tracer {
	t := &tracer{epoch: time.Now()}
	for _, p := range []*[]atomic.Int64{&t.due, &t.sendEnd, &t.engineOut, &t.popped, &t.pushIn[0], &t.pushIn[1]} {
		*p = make([]atomic.Int64, markerCap)
	}
	t.outShard = make([]atomic.Int32, markerCap)
	return t
}

// stamp records time at for marker id in one of the stamp arrays.
func (t *tracer) stamp(slots []atomic.Int64, id int, at time.Time) {
	if id < len(slots) {
		slots[id].Store(int64(at.Sub(t.epoch)) + 1)
	}
}

// listener wraps ln so that every accepted connection reports to the
// tracer as part of the given shard.
func (t *tracer) listener(ln net.Listener, shard int) net.Listener {
	if t.off {
		return ln
	}
	return tracedListener{ln, t, shard}
}

type tracedListener struct {
	net.Listener
	t     *tracer
	shard int
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.t.conns[l.shard].Add(1)
	return tracedConn{c, l.t, l.shard}, nil
}

// tracedConn is the server's side of a session connection.
type tracedConn struct {
	net.Conn
	t     *tracer
	shard int
}

func (c tracedConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	c.t.readWait[c.shard].Add(int64(time.Since(start)))
	c.t.bytesIn[c.shard].Add(int64(n))
	return n, err
}

func (c tracedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.t.writeBusy[c.shard].Add(int64(time.Since(start)))
	c.t.bytesOut[c.shard].Add(int64(n))
	return n, err
}

// engineFactory builds the ordinary software uni-flow engine inside the
// tracing decorator, for the server's NewEngine seam.
func (t *tracer) engineFactory(shard int) func(accelstream.SessionConfig) (accelstream.SessionEngineImpl, error) {
	return func(cfg accelstream.SessionConfig) (accelstream.SessionEngineImpl, error) {
		inner, err := newUniEngine(cfg)
		if err != nil || t.off {
			return inner, err
		}
		// Same depth as the engine's own result channel would have to be
		// to hide the extra hop; the overhead that remains is reported.
		return &tracedEngine{uniEngine: inner, t: t, shard: shard, out: make(chan accelstream.Result, 256)}, nil
	}
}

type tracedEngine struct {
	uniEngine
	t     *tracer
	shard int
	out   chan accelstream.Result
}

func (e *tracedEngine) Start() error {
	if err := e.uniEngine.Start(); err != nil {
		return err
	}
	// Ends when the inner engine closes its results, which Close waits for.
	go func() {
		defer close(e.out)
		for r := range e.uniEngine.Results() {
			if id, ok := isMarker(r.R.Key); ok {
				e.t.stamp(e.t.engineOut, id, time.Now())
				if id < len(e.t.outShard) {
					e.t.outShard[id].Store(int32(e.shard))
				}
			}
			e.out <- r
		}
	}()
	return nil
}

func (e *tracedEngine) PushBatch(b []accelstream.Input) error {
	start := time.Now()
	// A marker's probe is the last tuple of its batch.
	if tail := b[len(b)-1]; tail.Side == accelstream.SideR {
		if id, ok := isMarker(tail.Tuple.Key); ok {
			e.t.stamp(e.t.pushIn[e.shard], id, start)
		}
	}
	err := e.uniEngine.PushBatch(b)
	e.t.pushBusy[e.shard].Add(int64(time.Since(start)))
	return err
}

func (e *tracedEngine) Results() <-chan accelstream.Result { return e.out }
func (e *tracedEngine) Backlog() int                       { return len(e.out) + e.uniEngine.Backlog() }

// traceCounters is a snapshot of the tracer's running totals, averaged
// over the shards that carried a connection.
type traceCounters struct {
	readWait, writeBusy, pushBusy float64 // seconds, mean per active shard
}

func (t *tracer) counters() traceCounters {
	var c traceCounters
	if t == nil {
		return c
	}
	active := 0
	for i := 0; i < shards; i++ {
		if t.conns[i].Load() == 0 {
			continue
		}
		active++
		c.readWait += float64(t.readWait[i].Load()) / 1e9
		c.writeBusy += float64(t.writeBusy[i].Load()) / 1e9
		c.pushBusy += float64(t.pushBusy[i].Load()) / 1e9
	}
	if active > 0 {
		c.readWait /= float64(active)
		c.writeBusy /= float64(active)
		c.pushBusy /= float64(active)
	}
	return c
}

// traceShares says who was blocked on whom over a phase: the share of the
// phase the server's session reader sat in Read waiting for the client,
// the share its writers spent in Write, and the share its reader spent
// inside PushBatch (the engine pushing back).
type traceShares struct {
	connReadWait, connWrite, enginePush float64
}

func (c traceCounters) sharesSince(before traceCounters, span time.Duration) traceShares {
	if span <= 0 {
		return traceShares{}
	}
	s := span.Seconds()
	return traceShares{
		connReadWait: (c.readWait - before.readWait) / s,
		connWrite:    (c.writeBusy - before.writeBusy) / s,
		enginePush:   (c.pushBusy - before.pushBusy) / s,
	}
}

// span is one traced interval. Spans of one marker share its id; parent
// is the index of the enclosing span in the trace file, -1 for a root.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Parent int     `json:"parent"`
	Marker int     `json:"marker"`
}

// stages are the four consecutive legs of a marker's journey, in order.
var stages = [4]string{"client_send", "ingress", "engine", "egress"}

// markerSpans turns the stamps of every completed marker into a root span
// (due time to client pop) and four child spans that tile it:
//
//	client_send  due            -> SendBatch returned
//	ingress      SendBatch end  -> PushBatch entry on the shard that answered
//	engine       PushBatch entry-> marker result left the engine
//	egress       engine out     -> popped from the client's Results()
//
// A boundary stamped before its predecessor (the server can reach
// PushBatch before the client's SendBatch has returned) is moved up to it,
// so the children never overlap and their durations add up to the root's.
// The children have no children of their own, so each one's duration is
// its self time.
func (t *tracer) markerSpans() []span {
	var spans []span
	for id := range t.due {
		shard := int(t.outShard[id].Load())
		raw := [5]int64{
			t.due[id].Load(), t.sendEnd[id].Load(), t.pushIn[shard][id].Load(),
			t.engineOut[id].Load(), t.popped[id].Load(),
		}
		complete := true
		for _, v := range raw {
			complete = complete && v != 0
		}
		if !complete {
			continue
		}
		var at [5]float64
		for i, v := range raw {
			at[i] = float64(v-1) / 1e3
			if i > 0 && at[i] < at[i-1] {
				at[i] = at[i-1]
			}
		}
		root := len(spans)
		spans = append(spans, span{Name: "marker", Start: at[0], End: at[4], Parent: -1, Marker: id})
		for i, name := range stages {
			spans = append(spans, span{Name: name, Start: at[i], End: at[i+1], Parent: root, Marker: id})
		}
	}
	return spans
}

// stageBreakdown answers "where does a typical marker spend its time, and
// where a slow one": for the markers whose total latency lies between the
// given percentiles it returns the mean total and the mean duration of
// each stage. The stage means add up to the total mean by construction.
func stageBreakdown(spans []span, loPct, hiPct float64) (total float64, perStage [4]float64) {
	type marker struct {
		total  float64
		stages [4]float64
	}
	var ms []marker
	for i := 0; i+4 < len(spans); i += 5 {
		m := marker{total: spans[i].End - spans[i].Start}
		for j := range stages {
			m.stages[j] = spans[i+1+j].End - spans[i+1+j].Start
		}
		ms = append(ms, m)
	}
	if len(ms) == 0 {
		return 0, perStage
	}
	sort.Slice(ms, func(a, b int) bool { return ms[a].total < ms[b].total })
	lo := int(loPct / 100 * float64(len(ms)))
	hi := int(hiPct / 100 * float64(len(ms)))
	lo = min(lo, len(ms)-1)
	hi = max(min(hi, len(ms)), lo+1)
	for _, m := range ms[lo:hi] {
		total += m.total
		for j := range stages {
			perStage[j] += m.stages[j]
		}
	}
	n := float64(hi - lo)
	for j := range perStage {
		perStage[j] /= n
	}
	return total / n, perStage
}

// traceFile is what a traced run leaves in bench/out/<workload>.trace.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Bytes the hosted shards read from and wrote to their connections.
	ConnBytesIn  [shards]int64 `json:"conn_bytes_in"`
	ConnBytesOut [shards]int64 `json:"conn_bytes_out"`
	Spans        []span        `json:"spans"`
}

// file gathers what the tracer recorded for the trace file.
func (t *tracer) file(workload string, seed int64) traceFile {
	f := traceFile{Workload: workload, Seed: seed, Spans: t.markerSpans()}
	for i := range f.ConnBytesIn {
		f.ConnBytesIn[i] = t.bytesIn[i].Load()
		f.ConnBytesOut[i] = t.bytesOut[i].Load()
	}
	return f
}

func writeTrace(path string, f traceFile) error {
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
