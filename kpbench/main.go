// Command kpbench is the repository benchmark. It starts the real
// kpserve binary fresh for each run, drives it open-loop from one
// process over at most two connections with request bodies pre-encoded
// from --seed, checks every verdict against an in-process reference
// pipeline, and prints the end-to-end metrics of one workload
// (--trace 0), or replays the same inputs in process through each
// layer's public functions with spans and prints the per-layer
// breakdown (--trace 1). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through the wrapper, which builds
// kpserve and this program from source first:
//
//	bash kpbench/run.sh --workload score-suspect --seed 1 --seconds 16 --trace 0
//
// Workloads: score-suspect, score-browse, feed-recrawl (see
// BENCHMARK.json for why each exists).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"knowphish/internal/webgen"
)

// conns is the connection cap: the benchmark host has two CPUs, and
// more client connections than CPUs would only queue inside kpserve.
const conns = 2

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and the human-readable table printed before
// the result line.
type report struct {
	res        result
	lines      []string
	mismatches int
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: make(map[string]metric)}}
}

// set records a metric for the result line and the table; n is its
// sample count (0 when it is not a sample statistic).
func (r *report) set(name string, v float64, unit string, n int) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	r.note("%-28s %14.4f %-6s n=%d", name, v, unit, n)
}

// note adds a table line that is not a gated metric.
func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// mismatch marks the run incorrect; the table lists the first
// maxMismatches and counts the rest.
func (r *report) mismatch(format string, args ...any) {
	r.res.Correct = false
	r.mismatches++
	if r.mismatches <= maxMismatches {
		r.note("MISMATCH "+format, args...)
	}
}

const maxMismatches = 10

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	kpserve  string
	work     string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: score-suspect, score-browse or feed-recrawl")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 16, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics against kpserve; 1: traced per-layer breakdown")
	flag.StringVar(&o.kpserve, "kpserve", "", "kpserve binary")
	flag.StringVar(&o.work, "work", "", "scratch directory for stores, logs and span dumps")
	flag.Parse()
	o.trace = trace == 1
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "kpbench:", err)
		os.Exit(2)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kpbench:", err)
		os.Exit(1)
	}
	os.Exit(rep.finish(os.Stdout, os.Stderr))
}

// finish prints the table and the result line and returns the exit
// status: 1 when any verdict differed from the reference or any request
// failed, 0 otherwise.
func (r *report) finish(out, errOut io.Writer) int {
	for _, l := range r.lines {
		fmt.Fprintln(out, l)
	}
	if r.mismatches > maxMismatches {
		fmt.Fprintf(out, "MISMATCH ... %d in all\n", r.mismatches)
	}
	// A failed request's latency is +Inf, which JSON cannot carry. Such
	// a run fails below anyway; its non-finite metrics are left out of
	// the result line so that the line still prints.
	names := make([]string, 0, len(r.res.Metrics))
	for name := range r.res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if v := r.res.Metrics[name].Value; math.IsInf(v, 0) || math.IsNaN(v) {
			delete(r.res.Metrics, name)
			fmt.Fprintf(out, "%s is %v (failed requests count as +Inf); left out of the result line\n", name, v)
		}
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(errOut, "kpbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	status := 0
	if !r.res.Correct {
		fmt.Fprintln(errOut, "kpbench: verdict check failed")
		status = 1
	}
	if r.res.Failed > 0 {
		fmt.Fprintf(errOut, "kpbench: %d of %d requests failed\n", r.res.Failed, r.res.Attempted)
		status = 1
	}
	return status
}

func (o *options) validate() error {
	if _, ok := specs[o.workload]; !ok {
		names := make([]string, 0, len(specs))
		for n := range specs {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown --workload %q (want one of %s)", o.workload, strings.Join(names, ", "))
	}
	if o.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if o.kpserve == "" || o.work == "" {
		return errors.New("--kpserve and --work are required (run through kpbench/run.sh)")
	}
	return os.MkdirAll(o.work, 0o755)
}

func run(o options) (*report, error) {
	ctx := context.Background()
	// Inputs come from kpserve's world alone; the reference pipeline,
	// whose corpus and training fill the heap, is built only after the
	// HTTP phases, so the load generator's garbage collector stays small
	// while it keeps the schedule.
	b := &bench{o: o, sp: specs[o.workload], rep: newReport(), t0: time.Now()}
	b.rep.note("workload %s seed %d seconds %d trace %v", o.workload, o.seed, o.seconds, o.trace)
	world := webgen.New(webgen.Config{Seed: serverSeed + 1})
	var err error
	if o.workload == wlFeed {
		if b.feed, err = newFeedInputs(world, o.seed); err != nil {
			return nil, err
		}
	} else if b.score, err = newScoreInputs(world, o.workload, o.seed); err != nil {
		return nil, err
	}
	b.progress("inputs ready")
	if o.trace {
		err = b.traced(ctx)
	} else {
		err = b.endToEnd(ctx)
	}
	b.progress("done")
	return b.rep, err
}

// bench is one run's state.
type bench struct {
	o     options
	sp    spec
	ref   *reference
	rep   *report
	score *scoreInputs
	feed  *feedInputs
	runs  int // servers started, naming their stores and logs
	t0    time.Time

	// traced runs only
	side        serverSide
	untracedUS  float64 // mean request time of the untraced replay
	compactions int64   // of the traced replay's store
}

// start launches a fresh kpserve with its own store directory.
func (b *bench) start() (*server, time.Duration, error) {
	b.runs++
	dir := filepath.Join(b.o.work, fmt.Sprintf("%s-%d-%d", b.o.workload, b.o.seed, b.runs))
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	return startServer(b.o.kpserve, filepath.Join(dir, "store"), filepath.Join(dir, "kpserve.log"))
}

// reference builds the reference pipeline on first use.
func (b *bench) reference() error {
	if b.ref != nil {
		return nil
	}
	ref, err := buildReference()
	b.ref = ref
	b.progress("reference built")
	return err
}

// progress reports a run's progress on standard error.
func (b *bench) progress(what string) {
	fmt.Fprintf(os.Stderr, "kpbench: %6.1fs %s\n", time.Since(b.t0).Seconds(), what)
}

// loadPhases runs the HTTP phases with a quiet client heap: collected
// up front, and collected less often while the phases run.
func loadPhases(f func() error) error {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	return f()
}

func (b *bench) secs(share float64) time.Duration {
	return time.Duration(share * float64(b.o.seconds) * float64(time.Second))
}
