package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// loadRunSet reads a run-set file into workload -> metric -> values, one
// value per run.
func loadRunSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !rec.Result.Correct {
			return nil, fmt.Errorf("%s:%d: run of %s (seed %d) was not correct: %v", path, line, rec.Workload, rec.Seed, rec.Problems)
		}
		if set[rec.Workload] == nil {
			set[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Result.Metrics {
			set[rec.Workload][name] = append(set[rec.Workload][name], v.Value)
		}
	}
	return set, sc.Err()
}

// Verdicts of one workload x metric row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of one metric on one workload: b is worse when
// its median is worse than a's by more than bound (a share of a's
// median); failing that, the row is unresolved when either side's own
// run-to-run spread is wider than the bound, and ok otherwise.
func judge(a, b []float64, better string, bound float64) (ratio float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, verdictUnresolved
	}
	ratio = mb / ma
	worsening := ratio - 1
	if better == "higher" {
		worsening = 1 - ratio
	}
	// Floating-point slop must not turn "exactly at the bound" into worse.
	const eps = 1e-9
	switch {
	case worsening > bound+eps:
		return ratio, verdictWorse
	case spread(a) > bound+eps || spread(b) > bound+eps:
		return ratio, verdictUnresolved
	default:
		return ratio, verdictOK
	}
}

// compareMain prints one row per workload x end-to-end metric and returns
// a non-zero code when any row is worse.
func compareMain(pathA, pathB string) int {
	code, err := compare(pathA, pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	return code
}

func compare(pathA, pathB string) (int, error) {
	root, err := repoRoot()
	if err != nil {
		return 0, err
	}
	bench, err := loadBenchmarkFile(root)
	if err != nil {
		return 0, err
	}
	a, err := loadRunSet(pathA)
	if err != nil {
		return 0, err
	}
	b, err := loadRunSet(pathB)
	if err != nil {
		return 0, err
	}
	return printComparison(bench, a, b), nil
}

func printComparison(bench *benchmarkFile, a, b map[string]map[string][]float64) int {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbetter\tmedian a\tmedian b\tb/a (base a)\tspread a\tspread b\tbound\tverdict")
	code := 0
	for _, w := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t-\t-\t-\t-\t-\t%.2f\tmissing\n", w.Name, m.Name, m.Unit, m.Better, m.Bound)
				code = 1
				continue
			}
			ratio, verdict := judge(va, vb, m.Better, m.Bound)
			if verdict == verdictWorse {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.6g\t%.6g\t%.3f (%.6g)\t%.3f\t%.3f\t%.2f\t%s\n",
				w.Name, m.Name, m.Unit, m.Better, median(va), median(vb), ratio, median(va),
				spread(va), spread(vb), m.Bound, verdict)
		}
	}
	tw.Flush()
	return code
}
