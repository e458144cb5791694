// Command compare reads two sets of benchmark runs and reports, for
// every (workload, metric), each set's median and quartiles, its
// spread, and whether the second set is better, worse, within the
// bound or unresolved against the first under BENCHMARK.json's bounds.
//
// A set is a directory holding <workload>/<name>.json files, each the
// result line of one run (kpbench/runset.sh writes them). Runs pair up
// in file-name order, so give both sets the same seeds.
//
//	bash kpbench/compare.sh <base-set> <change-set>
//
// Rules (the benchmark's acceptance rules):
//   - worse: the change's median is worse than the base's by more than
//     the metric's bound (a share of the base median);
//   - better: the change wins at least 9 of 10 pairs (ties count for
//     neither) and the medians differ by more than the base's own
//     quartile distance;
//   - unresolved: neither, and either set's spread (quartile distance
//     over median) exceeds the bound, unless every change run reads
//     better than every base run;
//   - within-bound: otherwise.
//
// Metrics without a bound (per-layer ones) are reported but never
// judged worse. The exit status is 1 when any pairing is worse.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type runResult struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	bench := flag.String("benchmark", "BENCHMARK.json", "benchmark definition with the metric bounds")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: compare [-benchmark BENCHMARK.json] <base-set> <change-set>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	def, err := readBenchmark(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	rows, err := compareSets(def, flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	worse := false
	fmt.Printf("%-14s %-28s %-6s %9s %24s %6s %9s %24s %6s %8s  %s\n",
		"workload", "metric", "unit", "base-med", "base q1..q3", "spread", "chg-med", "chg q1..q3", "spread", "delta", "verdict")
	for _, r := range rows {
		fmt.Printf("%-14s %-28s %-6s %9.4g %11.4g..%-11.4g %6.3f %9.4g %11.4g..%-11.4g %6.3f %+7.2f%%  %s\n",
			r.workload, r.metric, r.unit, r.a.med, r.a.q1, r.a.q3, r.a.spread(), r.b.med, r.b.q1, r.b.q3, r.b.spread(),
			100*relDelta(r.a.med, r.b.med), r.verdict)
		worse = worse || r.verdict == "worse"
	}
	if worse {
		os.Exit(1)
	}
}

func readBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchmarkFile
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// row is one (workload, metric) comparison.
type row struct {
	workload, metric, unit string
	a, b                   summary
	verdict                string
}

// summary is a set's median and quartiles of one metric.
type summary struct {
	vals        []float64 // in run (file-name) order
	med, q1, q3 float64
}

func summarize(vals []float64) summary {
	s := summary{vals: vals}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	s.med = medianOf(sorted)
	s.q1, s.q3 = quartiles(sorted)
	return s
}

// spread is the quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return (s.q3 - s.q1) / abs(s.med)
}

func compareSets(def *benchmarkFile, dirA, dirB string) ([]row, error) {
	var rows []row
	for _, w := range def.Workloads {
		runsA, err := readRuns(filepath.Join(dirA, w.Name))
		if err != nil {
			return nil, err
		}
		runsB, err := readRuns(filepath.Join(dirB, w.Name))
		if err != nil {
			return nil, err
		}
		if len(runsA) == 0 || len(runsB) == 0 {
			continue
		}
		for _, m := range append(append([]metricSpec(nil), def.EndToEnd...), def.PerLayer...) {
			va, vb := values(runsA, m.Name), values(runsB, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := row{workload: w.Name, metric: m.Name, unit: m.Unit, a: summarize(va), b: summarize(vb)}
			r.verdict = judge(m, r.a, r.b)
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// readRuns loads every result file of one workload, in file-name order.
// A run whose verdict check failed, or in which a request failed, is an
// error: its numbers mean nothing.
func readRuns(dir string) ([]runResult, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var runs []runResult
	for _, n := range names {
		b, err := os.ReadFile(n)
		if err != nil {
			return nil, err
		}
		var r runResult
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: run failed its verdict check", n)
		}
		if r.Failed > 0 {
			return nil, fmt.Errorf("%s: %d requests failed in the run", n, r.Failed)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

func values(runs []runResult, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// judge applies the comparison rules to one metric.
func judge(m metricSpec, a, b summary) string {
	lower := m.Better == "lower"
	// gain is how much better b is than a, as a share of a's median.
	gain := relDelta(a.med, b.med)
	if lower {
		gain = -gain
	}
	if m.Bound != nil && gain < -*m.Bound {
		return "worse"
	}
	wins, pairs := 0, min(len(a.vals), len(b.vals))
	for i := 0; i < pairs; i++ {
		if betterThan(b.vals[i], a.vals[i], lower) {
			wins++
		}
	}
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && abs(b.med-a.med) > a.q3-a.q1 && gain > 0 {
		return "better"
	}
	if m.Bound == nil {
		return "no-bound"
	}
	if a.spread() > *m.Bound || b.spread() > *m.Bound {
		if allBetter(a.vals, b.vals, lower) {
			return "within-bound"
		}
		return "unresolved"
	}
	return "within-bound"
}

func betterThan(x, y float64, lower bool) bool {
	if lower {
		return x < y
	}
	return x > y
}

// allBetter reports whether every b value beats every a value.
func allBetter(a, b []float64, lower bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !betterThan(x, y, lower) {
				return false
			}
		}
	}
	return true
}

// quartiles returns the first and third quartiles of sorted data the
// way Python's statistics.quantiles(data, n=4) does (its default
// "exclusive" method), which is how the acceptance spread is defined.
// With fewer than two values both quartiles are that value.
func quartiles(sorted []float64) (float64, float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return sorted[0], sorted[0]
	}
	q := func(i int) float64 {
		m := n + 1
		// Python clamps j into [1, n-1] before taking delta, so with
		// very few values the quartiles extrapolate.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func medianOf(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// relDelta is (b - a) / |a|, 0 when a is 0.
func relDelta(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / abs(a)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
