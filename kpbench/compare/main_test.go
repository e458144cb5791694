package main

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// The spread the benchmark is accepted on is defined with Python's
// statistics.quantiles(data, n=4); these expectations are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, 2, 5},
		{[]float64{10, 11, 12}, 10, 12},
	}
	for _, c := range cases {
		sorted := append([]float64(nil), c.data...)
		sort.Float64s(sorted)
		q1, q3 := quartiles(sorted)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	bound := 0.1
	lowerIsBetter := metricSpec{Name: "p99_ms", Better: "lower", Bound: &bound}
	higherIsBetter := metricSpec{Name: "capacity_rps", Better: "higher", Bound: &bound}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same code", lowerIsBetter, steady, steady, "within-bound"},
		{"latency up 20%", lowerIsBetter, steady, shift(steady, 1.2), "worse"},
		{"latency down 20%", lowerIsBetter, steady, shift(steady, 0.8), "better"},
		{"capacity down 20%", higherIsBetter, steady, shift(steady, 0.8), "worse"},
		{"capacity up 5%", higherIsBetter, steady, shift(steady, 1.05), "better"},
		{"noisy", lowerIsBetter, []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100}, steady, "unresolved"},
		{"no bound", metricSpec{Name: "x", Better: "lower"}, steady, shift(steady, 2), "no-bound"},
	}
	for _, c := range cases {
		if got := judge(c.m, summarize(c.a), summarize(c.b)); got != c.want {
			t.Errorf("%s: judge = %q, want %q", c.name, got, c.want)
		}
	}
}

// A set holding a run in which any request failed is refused: such a
// run's numbers are not comparable.
func TestReadRunsRefusesFailedRuns(t *testing.T) {
	dir := t.TempDir()
	write := func(name, line string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(line), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("000001.json", `{"correct":true,"attempted":10,"failed":0,"metrics":{"p50_ms":{"value":1,"unit":"ms"}}}`)
	if _, err := readRuns(dir); err != nil {
		t.Fatalf("clean run refused: %v", err)
	}
	write("000002.json", `{"correct":true,"attempted":10,"failed":1,"metrics":{"p50_ms":{"value":1,"unit":"ms"}}}`)
	if _, err := readRuns(dir); err == nil {
		t.Fatal("a run with a failed request was accepted")
	}
}
