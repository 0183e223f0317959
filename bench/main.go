// Command bench is the repository's benchmark: a single-process load
// generator and measurer that builds and spawns the real cmd/streamd and
// cmd/streamshard binaries on loopback, drives them through the public
// client (accelstream.Dial), verifies every result against its own
// reference join, and prints each metric by name and unit as JSON. See
// README.md in this directory.
//
//	bash bench/run.sh --workload result_heavy --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload result_heavy --seed 1 --seconds 20 --trace 1
//	bash bench/run.sh --workload probe_scan --layers
//	bash bench/run.sh --compare bench/baseline/set1.jsonl bench/baseline/set2.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark driver reads: the last line of
// standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of a run-set file (-out): the result plus what is
// needed to judge whether two rows may be compared.
type record struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Seconds    int                  `json:"seconds"`
	Trace      int                  `json:"trace"`
	Commit     string               `json:"commit"`
	GoVersion  string               `json:"go"`
	NumCPU     int                  `json:"nproc"`
	GoMaxProcs int                  `json:"gomaxprocs"`
	When       string               `json:"when"`
	Loopback   float64              `json:"loopback_mb_per_s"`
	Headroom   float64              `json:"gen_headroom"`
	Samples    int                  `json:"latency_samples"`
	Problems   []string             `json:"problems,omitempty"`
	Slices     map[string][]float64 `json:"slices,omitempty"` // what each end-to-end metric was read off
	Result     result               `json:"result"`
}

// running tracks every spawned daemon, so that whichever way the harness
// exits it first kills and waits for those still alive.
var running struct {
	sync.Mutex
	daemons map[*daemon]struct{}
}

func track(d *daemon, on bool) {
	running.Lock()
	defer running.Unlock()
	if running.daemons == nil {
		running.daemons = map[*daemon]struct{}{}
	}
	if on {
		running.daemons[d] = struct{}{}
	} else {
		delete(running.daemons, d)
	}
}

func killAllDaemons() {
	running.Lock()
	var all []*daemon
	for d := range running.daemons {
		all = append(all, d)
	}
	running.Unlock()
	for _, d := range all {
		d.kill()
	}
}

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllDaemons()
		os.Exit(130)
	}()
	code := run()
	killAllDaemons()
	os.Exit(code)
}

func run() int {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "length of the measured part of the run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (counting run, isolated timers, traced run)")
	layers := flag.Bool("layers", false, "run only the isolated layer timers and print their metrics")
	smoke := flag.Bool("smoke", false, "run against in-process servers instead of the built binaries")
	compare := flag.Bool("compare", false, "compare two run-set files: -compare a.jsonl b.jsonl")
	out := flag.String("out", "", "append the full run record to this run-set file")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two run-set files")
			return 2
		}
		return compareMain(flag.Arg(0), flag.Arg(1))
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v (want one of %s)\n", err, workloadNames())
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	rec, err := measure(w, *seed, *seconds, *trace, *layers, *smoke)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(os.Stderr, "bench: FAILED: %s\n", p)
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// rootFlag is the module the harness measures. The default suits go run
// and go test, which run in the bench directory; run.sh names it.
var rootFlag = flag.String("root", "..", "repository under test")

func repoRoot() (string, error) {
	root, err := filepath.Abs(*rootFlag)
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "streamd")); err != nil {
		return "", fmt.Errorf("-root %s is not the repository (run bash bench/run.sh): %w", *rootFlag, err)
	}
	return root, nil
}

// env is where one invocation runs: the repository under test, the
// built daemons, and the scratch directories inside the checkout.
type env struct {
	root   string
	tmp    string // scratch for checkpoint directories
	outDir string // bench/out: trace files
	bins   *binaries
}

func prepare(smoke bool) (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	e := &env{
		root:   root,
		tmp:    filepath.Join(root, ".bench_build", "tmp"),
		outDir: filepath.Join(root, "bench", "out"),
	}
	binDir := filepath.Join(root, ".bench_build", "bin")
	for _, dir := range []string{e.tmp, e.outDir, binDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	if !smoke {
		if e.bins, err = buildBinaries(root, binDir); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// measure carries out one invocation and wraps what it measured into a
// record: the selected metrics with their units, the operation counts,
// and every problem in words.
func measure(w spec, seed int64, seconds, trace int, layersOnly, smoke bool) (*record, error) {
	e, err := prepare(smoke || layersOnly)
	if err != nil {
		return nil, err
	}
	in, err := makeInputs(w, seed)
	if err != nil {
		return nil, err
	}
	rec := &record{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		Commit: commitOf(e.root), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		When: time.Now().UTC().Format(time.RFC3339),
	}
	total := time.Duration(seconds) * time.Second

	var vals metrics
	var runs []*e2eResult
	defs := perLayer
	switch {
	case layersOnly:
		vals, err = layerTimers(in, total/50, e.tmp)
		defs = nil
		for _, d := range perLayer {
			if _, ok := vals[d.Name]; ok {
				defs = append(defs, d)
			}
		}
	case trace == 0:
		defs = endToEnd
		vals, runs, err = measureEndToEnd(e, in, total, rec)
	default:
		vals, runs, err = measureLayers(e, in, total, seed, rec)
	}
	if err != nil {
		return nil, err
	}

	rec.Result = result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			rec.Problems = append(rec.Problems, "metric "+d.Name+" was not measured")
		}
		rec.Result.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, r := range runs {
		rec.Problems = append(rec.Problems, r.problems...)
		rec.Result.Attempted += r.attempted()
		rec.Result.Failed += r.failedOps()
	}
	if len(runs) > 0 && rec.Headroom < 3 {
		rec.Problems = append(rec.Problems, fmt.Sprintf(
			"invalid run: the generator alone sustains only %.1fx the measured ingest (need 3x)", rec.Headroom))
	}
	if len(rec.Problems) > 0 {
		rec.Result.Correct = false
		rec.Result.Failed = max(rec.Result.Failed, uint64(len(rec.Problems)))
	}
	return rec, nil
}

// measureEndToEnd is the measured run (--trace 0): tracing off, the real
// daemons, the full-length phases.
func measureEndToEnd(e *env, in *inputs, total time.Duration, rec *record) (metrics, []*e2eResult, error) {
	genRate := generatorRate(in, 200*time.Millisecond)
	calibration := metrics{}
	if err := loopbackTimer(in, 200*time.Millisecond, calibration); err != nil {
		return nil, nil, err
	}
	rec.Loopback = calibration["harness.loopback_mb_per_s"]
	r, err := runE2E(in, e.bins, nil, plan{
		setups: 15, verify: true, warm: 2 * time.Second,
		tput: total * 6 / 10, lat: total * 4 / 10,
	})
	if err != nil {
		return nil, nil, err
	}
	vals := e2eMetrics(r)
	rec.Headroom = genRate / vals["ingest_tuples_per_s"]
	rec.Samples = r.markers.matched
	rec.Slices = map[string][]float64{
		"ingest_tuples_per_s": r.sliceRates,
		"cpu_s_per_mtuple":    r.sliceCPU,
		"latency_p50_us":      slicePercentiles(r.markers.latencies, r.latSeconds, latSlices, 50),
		"setup_s":             r.setupSeconds,
	}
	return vals, []*e2eResult{r}, nil
}

// measureLayers is the per-layer pass (--trace 1), in four parts: a
// shorter counting run through the real daemons, the isolated layer
// timers, a hosted run (the traced topology with tracing off) and the
// traced run.
func measureLayers(e *env, in *inputs, total time.Duration, seed int64, rec *record) (metrics, []*e2eResult, error) {
	genRate := generatorRate(in, 200*time.Millisecond)
	counting, err := runE2E(in, e.bins, nil, plan{
		setups: 1, warm: time.Second, tput: total * 20 / 100, lat: total * 15 / 100,
	})
	if err != nil {
		return nil, nil, err
	}
	vals, err := layerTimers(in, total/50, e.tmp)
	if err != nil {
		return nil, nil, err
	}
	hosted, err := runE2E(in, e.bins, &tracer{off: true}, plan{
		setups: 1, warm: time.Second / 2, tput: total * 10 / 100,
	})
	if err != nil {
		return nil, nil, err
	}
	lat := total * 20 / 100
	tr := newTracer(markerCapacity(in.w, lat))
	traced, err := runE2E(in, e.bins, tr, plan{
		setups: 1, warm: time.Second, tput: total * 15 / 100, lat: lat,
	})
	if err != nil {
		return nil, nil, err
	}
	trace := tr.file(in.w.name, seed)
	spans := trace.Spans
	if err := writeTrace(filepath.Join(e.outDir, in.w.name+".trace.json"), trace); err != nil {
		return nil, nil, err
	}
	for k, v := range countMetrics(counting) {
		vals[k] = v
	}
	if vals["client.results_per_tuple"], err = in.steadyResultsPerTuple(); err != nil {
		return nil, nil, err
	}
	for k, v := range traceMetrics(spans, traced, hosted, counting) {
		vals[k] = v
	}
	rec.Headroom = genRate / quietRate(counting.sliceRates)
	rec.Samples = counting.markers.matched
	rec.Loopback = vals["harness.loopback_mb_per_s"]
	vals["harness.gen_headroom"] = rec.Headroom
	vals["harness.build_s"] = 0
	if e.bins != nil {
		vals["harness.build_s"] = e.bins.buildSeconds
	}
	return vals, []*e2eResult{counting, hosted, traced}, nil
}

// commitOf names the commit under test when the checkout is a git
// repository; the benchmark driver's checkouts are not.
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
