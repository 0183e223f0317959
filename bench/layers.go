package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"slices"
	"time"

	"accelstream"
	"accelstream/internal/admission"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// metrics maps a metric name to its value; units come from the catalogue
// in metrics.go.
type metrics map[string]float64

// layerTimers replays the workload's own batches through each layer
// alone, inside the harness process, for about d per layer. Nothing here
// touches the real daemons: these are the numbers a layer can be
// re-measured with on its own. A layer that is not on the workload's path
// (no results, no router) reports 0.
func layerTimers(in *inputs, d time.Duration, tmp string) (metrics, error) {
	m := metrics{
		"harness.nproc":      float64(runtime.NumCPU()),
		"harness.gomaxprocs": float64(runtime.GOMAXPROCS(0)),
	}
	timers := []func(*inputs, time.Duration, metrics) error{
		wireBatchTimers, wireResultTimers, streamTimers, softjoinTimers,
		serverTimers, routerTimer, admissionTimers,
		func(in *inputs, _ time.Duration, m metrics) error { return checkpointTimer(in, tmp, m) },
		loopbackTimer,
	}
	for _, t := range timers {
		if err := t(in, d, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// generatorRate is what the harness's own send loop sustains against a
// null sink: walking the ring and encoding each batch into a discarded
// buffer. Measured ingest must stay well under it, or the generator — not
// the service — is what the run measured.
func generatorRate(in *inputs, d time.Duration) float64 {
	w := wire.NewWriter(io.Discard)
	var tuples int
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		b := in.ring(i)
		w.WriteBatch(uint64(i), b)
		tuples += len(b)
	}
	return float64(tuples) / time.Since(start).Seconds()
}

// sink keeps the compiler from discarding a timed loop's result.
var sink int

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// wireBatchTimers times the ingest framing: Writer.WriteBatch into a
// buffer, then Reader.ReadFrame + DecodeBatchInto back out of it.
func wireBatchTimers(in *inputs, d time.Duration, m metrics) error {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	r := wire.NewReader(&buf)
	var decoded []accelstream.Input
	var encNs, decNs time.Duration
	var tuples, batches, wireBytes int
	// One round encodes then decodes this many batches, so the buffer
	// stays a few MiB whatever the batch size.
	round := max(1, (256<<10)/in.w.batch)
	m0 := mallocs()
	for i := 0; encNs+decNs < d; i += round {
		buf.Reset()
		t0 := time.Now()
		for j := 0; j < round; j++ {
			if err := w.WriteBatch(uint64(i+j), in.ring(i+j)); err != nil {
				return err
			}
		}
		encNs += time.Since(t0)
		wireBytes += buf.Len()
		t0 = time.Now()
		for j := 0; j < round; j++ {
			f, err := r.ReadFrame()
			if err != nil {
				return err
			}
			if _, decoded, err = wire.DecodeBatchInto(f.Payload, 0, decoded); err != nil {
				return err
			}
			tuples += len(decoded)
		}
		decNs += time.Since(t0)
		batches += round
	}
	m["wire.allocs_per_batch"] = float64(mallocs()-m0) / float64(batches)
	m["wire.encode_batch_ns_per_tuple"] = float64(encNs) / float64(tuples)
	m["wire.decode_batch_ns_per_tuple"] = float64(decNs) / float64(tuples)
	m["wire.bytes_per_tuple"] = float64(wireBytes) / float64(tuples)
	return nil
}

// resultFill is the Results-frame fill the isolated result timers use:
// what one batch of the workload produces, within the server's 1024 cap.
func resultFill(w spec) int {
	return min(1024, int(math.Round(w.resultsPerTuple()*float64(w.batch))))
}

// cannedResults is a frame's worth of plausible results.
func cannedResults(n int) []accelstream.Result {
	out := make([]accelstream.Result, n)
	for i := range out {
		out[i] = accelstream.Result{
			R: accelstream.Tuple{Key: uint32(i), Val: uint32(i), Seq: uint64(1<<20 + i)},
			S: accelstream.Tuple{Key: uint32(i), Val: uint32(i), Seq: uint64(1<<20 + 2*i)},
		}
	}
	return out
}

// wireResultTimers times the result framing at the workload's frame fill:
// Writer.WriteResults, then Reader.ReadFrame + DecodeResults.
func wireResultTimers(in *inputs, d time.Duration, m metrics) error {
	fill := resultFill(in.w)
	for _, name := range []string{"wire.encode_results_ns_per_result", "wire.decode_results_ns_per_result", "wire.bytes_per_result"} {
		m[name] = 0
	}
	if fill == 0 {
		return nil
	}
	frame := cannedResults(fill)
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	r := wire.NewReader(&buf)
	var encNs, decNs time.Duration
	var results, wireBytes int
	round := max(1, (64<<10)/fill)
	for encNs+decNs < d {
		buf.Reset()
		t0 := time.Now()
		for j := 0; j < round; j++ {
			if err := w.WriteResults(frame); err != nil {
				return err
			}
		}
		encNs += time.Since(t0)
		wireBytes += buf.Len()
		t0 = time.Now()
		for j := 0; j < round; j++ {
			f, err := r.ReadFrame()
			if err != nil {
				return err
			}
			got, err := wire.DecodeResults(f.Payload)
			if err != nil {
				return err
			}
			results += len(got)
		}
		decNs += time.Since(t0)
	}
	m["wire.encode_results_ns_per_result"] = float64(encNs) / float64(results)
	m["wire.decode_results_ns_per_result"] = float64(decNs) / float64(results)
	m["wire.bytes_per_result"] = float64(wireBytes) / float64(results)
	return nil
}

// coreWindow is the sub-window one join core holds: the session window
// split over the shards and then over the cores.
func coreWindow(w spec) int {
	n := w.window / w.cores
	if w.sharded {
		n /= shards
	}
	return n
}

// streamTimers times the two per-tuple kernels of a join core at its
// sub-window size: the store (SlidingWindow.Insert, plus KeyIndex.NoteInsert
// under the hash kernel) and the probe (KeyIndex.AppendMatches, or a
// BlockMask sweep of the packed word column under the scan kernel).
func streamTimers(in *inputs, d time.Duration, m metrics) error {
	win := stream.NewSlidingWindow(coreWindow(in.w))
	var ix *stream.KeyIndex
	if !in.w.scan {
		ix = stream.NewKeyIndex(win)
	}
	// Keys as a core sees them: the S tuples it stores, the R tuples that
	// probe them.
	var stores, probes []accelstream.Tuple
	for _, b := range in.batches {
		for _, t := range b {
			if t.Side == accelstream.SideS {
				stores = append(stores, t.Tuple)
			} else {
				probes = append(probes, t.Tuple)
			}
		}
	}
	stored := 0
	store := func(n int) {
		for i := 0; i < n; i++ {
			t := stores[stored%len(stores)]
			stored++
			win.Insert(t)
			if ix != nil {
				ix.NoteInsert(t.Key)
			}
		}
	}
	store(win.Cap())

	var n int
	start := time.Now()
	for time.Since(start) < d/2 {
		store(1024)
		n += 1024
	}
	m["stream.store_ns_per_tuple"] = float64(time.Since(start)) / float64(n)

	matches := make([]accelstream.Tuple, 0, 64)
	cond := accelstream.EquiJoinOnKey()
	n = 0
	start = time.Now()
	for time.Since(start) < d/2 {
		for i := 0; i < 64; i++ {
			key := probes[(n+i)%len(probes)].Key
			if ix != nil {
				matches, _ = ix.AppendMatches(key, matches[:0])
				sink += len(matches)
				continue
			}
			older, newer := win.WordSegments()
			for _, seg := range [2][]uint64{older, newer} {
				for len(seg) > 0 {
					block := seg[:min(stream.BlockBits, len(seg))]
					if stream.BlockMask(block, cond.RHS, cond.Cmp, key) != 0 {
						sink++
					}
					seg = seg[len(block):]
				}
			}
		}
		n += 64
	}
	m["stream.probe_ns_per_tuple"] = float64(time.Since(start)) / float64(n)
	return nil
}

// engineConfig is the engine one streamd session of the workload runs.
func engineConfig(w spec) accelstream.SessionConfig {
	cfg := w.session()
	cfg.ProbeKernel = w.kernel()
	if w.sharded {
		cfg.Window /= shards
		cfg.ShardCount = shards
	}
	return cfg
}

// softjoinTimers runs the workload's engine in-process: PushBatch plus a
// draining consumer, with no socket and no framing.
func softjoinTimers(in *inputs, d time.Duration, m metrics) error {
	e, err := newUniEngine(engineConfig(in.w))
	if err != nil {
		return err
	}
	if err := e.Start(); err != nil {
		return err
	}
	var results uint64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range e.Results() {
			results++
		}
	}()
	cursor := 0
	for sent := 0; sent < 2*in.w.window; sent += in.w.batch {
		e.PushBatch(in.ring(cursor))
		cursor++
	}
	cmp0 := e.Comparisons()
	var tuples int
	start := time.Now()
	for time.Since(start) < d {
		b := in.ring(cursor)
		e.PushBatch(b)
		cursor++
		tuples += len(b)
	}
	if err := e.Close(); err != nil {
		return err
	}
	<-drained
	elapsed := time.Since(start)
	m["softjoin.push_ns_per_tuple"] = float64(elapsed) / float64(tuples)
	m["softjoin.results_per_s"] = float64(results) / elapsed.Seconds()
	m["softjoin.comparisons_per_tuple"] = float64(e.Comparisons()-cmp0) / float64(tuples)
	stored := e.StoredPerCore(accelstream.SideR)
	for i, s := range e.StoredPerCore(accelstream.SideS) {
		stored[i] += s
	}
	perCore := make([]float64, len(stored))
	for i, s := range stored {
		perCore[i] = float64(s)
	}
	m["softjoin.store_skew"] = slices.Max(perCore) / mean(perCore)
	return nil
}

// cannedEngine is an engine that does no join work: it discards its input
// and, per pushed tuple, emits a fixed number of canned results. With
// perTuple 0 it is the null engine.
type cannedEngine struct {
	perTuple float64
	owed     float64
	canned   []accelstream.Result
	out      chan accelstream.Result
}

func newCannedEngine(perTuple float64) *cannedEngine {
	// The depth of the soft-uni engine's own result channel (4 batches of
	// 64 plus one), so the session's coalescing sees the same burstiness.
	return &cannedEngine{perTuple: perTuple, canned: cannedResults(1024), out: make(chan accelstream.Result, 257)}
}

func (e *cannedEngine) Start() error { return nil }
func (e *cannedEngine) PushBatch(b []accelstream.Input) error {
	e.owed += e.perTuple * float64(len(b))
	for i := 0; e.owed >= 1; i++ {
		e.out <- e.canned[i%len(e.canned)]
		e.owed--
	}
	return nil
}
func (e *cannedEngine) Results() <-chan accelstream.Result { return e.out }
func (e *cannedEngine) Close() error                       { close(e.out); return nil }
func (e *cannedEngine) Backlog() int                       { return len(e.out) }

func cannedFactory(perTuple float64) func(accelstream.SessionConfig) (accelstream.SessionEngineImpl, error) {
	return func(accelstream.SessionConfig) (accelstream.SessionEngineImpl, error) {
		return newCannedEngine(perTuple), nil
	}
}

// sender is what the loopback timers drive: a client session or a shard
// router.
type sender interface {
	SendBatch([]accelstream.Input) error
	Results() <-chan accelstream.Result
}

// pump sends ring batches through s for d while a second goroutine drains
// its results, and returns the tuples sent, the results received and the
// time it took including the final drain. closeFn ends the session.
func pump(in *inputs, s sender, closeFn func() error, d time.Duration) (tuples int, results uint64, elapsed time.Duration, err error) {
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range s.Results() {
			results++
		}
	}()
	start := time.Now()
	for i := 0; time.Since(start) < d && err == nil; i++ {
		b := in.ring(i)
		err = s.SendBatch(b)
		tuples += len(b)
	}
	if cerr := closeFn(); err == nil {
		err = cerr
	}
	<-drained
	return tuples, results, time.Since(start), err
}

// serverTimers puts a real client and the real session loop on loopback
// around an engine that does nothing: first the null engine (session,
// credit loop, framing and socket, without a join), then an engine that
// emits canned results at the workload's selectivity (result coalescing,
// encoding and client decoding alone).
func serverTimers(in *inputs, d time.Duration, m metrics) error {
	m["server.result_path_ns_per_result"] = 0
	for _, perTuple := range []float64{0, in.w.resultsPerTuple()} {
		n, err := startLocal(accelstream.ServerConfig{NewEngine: cannedFactory(perTuple)}, nil, 0)
		if err != nil {
			return err
		}
		c, err := accelstream.Dial(n.addr, in.w.session())
		if err != nil {
			n.stop()
			return err
		}
		tuples, results, elapsed, err := pump(in, c, func() error { _, err := c.Close(); return err }, d/2)
		n.stop()
		if err != nil {
			return err
		}
		if perTuple == 0 {
			m["server.null_engine_ns_per_tuple"] = float64(elapsed) / float64(tuples)
			if in.w.resultsPerTuple() == 0 {
				break
			}
		} else {
			m["server.result_path_ns_per_result"] = float64(elapsed) / float64(results)
		}
	}
	return nil
}

// routerTimer drives a shard router over null-engine servers: broadcast,
// per-shard queues and credit windows, and the merge, without a join.
func routerTimer(in *inputs, d time.Duration, m metrics) error {
	m["shard.router_ns_per_tuple"] = 0
	if !in.w.sharded {
		return nil
	}
	var addrs []string
	for i := 0; i < shards; i++ {
		n, err := startLocal(accelstream.ServerConfig{NewEngine: cannedFactory(0)}, nil, 0)
		if err != nil {
			return err
		}
		defer n.stop()
		addrs = append(addrs, n.addr)
	}
	r, err := accelstream.DialSharded(accelstream.ShardConfig{Addrs: addrs, Cores: in.w.cores, Window: in.w.window})
	if err != nil {
		return err
	}
	tuples, _, elapsed, err := pump(in, r, func() error { _, err := r.Close(); return err }, d)
	if err != nil {
		return err
	}
	m["shard.router_ns_per_tuple"] = float64(elapsed) / float64(tuples)
	return nil
}

// admissionTimers times the two admission-control calls a session makes:
// Admit at open (with the Release that pairs with it) and Throttle per
// batch, on a controller with no quotas configured, as the daemons run.
func admissionTimers(in *inputs, d time.Duration, m metrics) error {
	ctl := admission.NewController(admission.Config{})
	var n int
	start := time.Now()
	for time.Since(start) < d/2 {
		lease, rej := ctl.Admit("bench", int64(2*in.w.window*16))
		if rej != nil {
			return rej
		}
		lease.Release()
		n++
	}
	m["admission.admit_ns"] = float64(time.Since(start)) / float64(n)

	lease, rej := ctl.Admit("bench", int64(2*in.w.window*16))
	if rej != nil {
		return rej
	}
	defer lease.Release()
	n = 0
	start = time.Now()
	for time.Since(start) < d/2 {
		lease.Throttle(in.w.batch)
		n++
	}
	m["admission.throttle_ns_per_batch"] = float64(time.Since(start)) / float64(n)
	return nil
}

// checkpointTimer takes one durable snapshot of a full window: a server
// with a checkpoint directory, a session prefilled with 2·window tuples,
// one Client.Checkpoint call.
func checkpointTimer(in *inputs, tmp string, m metrics) error {
	dir, err := os.MkdirTemp(tmp, "ckpt")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// A negative interval leaves only the requested and the final snapshot.
	n, err := startLocal(accelstream.ServerConfig{
		ProbeKernel: in.w.kernel(), CheckpointDir: dir, CheckpointInterval: -1,
	}, nil, 0)
	if err != nil {
		return err
	}
	defer n.stop()
	c, err := accelstream.Dial(n.addr, in.w.session())
	if err != nil {
		return err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range c.Results() {
		}
	}()
	for sent, i := 0, 0; sent < 2*in.w.window; sent, i = sent+in.w.batch, i+1 {
		if err := c.SendBatch(in.ring(i)); err != nil {
			return err
		}
	}
	start := time.Now()
	tuples, _, err := c.Checkpoint()
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	if len(tuples) == 0 {
		return fmt.Errorf("checkpoint returned an empty window")
	}
	m["checkpoint.snapshot_ms"] = float64(elapsed) / 1e6
	m["checkpoint.state_bytes"] = float64(n.local.ProcessStats().Checkpoints.LastBytes)
	_, err = c.Close()
	<-drained
	return err
}

// loopbackTimer calibrates the box: raw TCP over loopback in 64 KiB
// writes, so rows from different machines are not compared blindly.
func loopbackTimer(_ *inputs, d time.Duration, m metrics) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), d+5*time.Second)
	defer cancel()
	received := make(chan int64, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			received <- 0
			return
		}
		defer c.Close()
		n, _ := io.Copy(io.Discard, c)
		received <- n
	}()
	var dialer net.Dialer
	c, err := dialer.DialContext(ctx, "tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	buf := make([]byte, 64<<10)
	start := time.Now()
	for time.Since(start) < d {
		if _, err := c.Write(buf); err != nil {
			c.Close()
			return err
		}
	}
	c.Close()
	n := <-received
	m["harness.loopback_mb_per_s"] = float64(n) / (1 << 20) / time.Since(start).Seconds()
	return nil
}
