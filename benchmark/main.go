// Command benchmark is the repository's benchmark. It runs fixed-work
// workloads on the simulator one after another in one process, times them on
// the host, checks every simulated output, and prints each end-to-end metric
// by name with its unit. With -trace 1 it instead reruns each workload with
// per-layer instrumentation attached from outside — a counting Proc profiler
// and a CPU profile billed to layers — and prints per-layer metrics.
//
// Usage, from the repository root (run.sh builds this package first):
//
//	bash benchmark/run.sh [-workload name] [-seed n] [-seconds s] [-trace 0|1]
//
// Each workload prints its metrics as "<workload> <metric> <value> <unit>"
// lines followed by one JSON line {"correct", "attempted", "failed",
// "metrics"}. The exit status is 1 if any check failed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"time"

	"startvoyager/internal/sim"
)

// Set-up time and heap are medians over at least setupBuilds constructions
// and at least setupSeconds (capped at the timed phase's length) of
// building: single 1024-node builds vary by more than half their time, and
// 64-node builds take milliseconds.
const (
	setupBuilds  = 5
	setupSeconds = 1.0
)

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd lists the end-to-end metrics, in BENCHMARK.json order.
var endToEnd = []metric{
	{name: "run_s", unit: "s"},
	{name: "setup_s", unit: "s"},
	{name: "heap_mb", unit: "MiB"},
	{name: "alloc_mb", unit: "MiB"},
	{name: "sim_time_us", unit: "us"},
	{name: "sim_lat_p50_ns", unit: "ns"},
	{name: "sim_lat_p99_ns", unit: "ns"},
	{name: "ops", unit: "count"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Int64("seed", 1, "input seed; seed 2 is held out for confirming claims")
	seconds := fs.Float64("seconds", 10, "host seconds of timed repetitions per workload")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from an instrumented rerun")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "benchmark: usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1]")
		return 2
	}
	todo := specs
	if *name != "" {
		todo = nil
		for _, w := range specs {
			if w.name == *name {
				todo = []spec{w}
			}
		}
		if todo == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
	}

	// The simulator runs exactly one goroutine at a time, so extra Ps only
	// add cross-thread wake-ups to every Proc handoff, and with them host
	// noise: run_s varies several times more across runs at GOMAXPROCS=2
	// than at 1 (see README.md). An explicit GOMAXPROCS setting is kept.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	code := 0
	for _, w := range todo {
		fmt.Fprintf(stdout, "# %s seed=%d seconds=%g trace=%d gomaxprocs=%d\n",
			w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
		var rep *report
		var err error
		if *trace == 1 {
			rep, err = measureLayers(w, *seed, *seconds)
		} else {
			rep, err = measure(w, *seed, *seconds)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if err := rep.print(stdout); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if !rep.correct {
			code = 1
		}
	}
	return code
}

// report is one workload's result.
type report struct {
	workload          string
	correct           bool
	attempted, failed int
	metrics           []metric // every metric, in print order
	contract          []metric // the names and units the JSON line carries
	notes             []string
}

func (r *report) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "%s note %s\n", r.workload, n)
	}
	byName := map[string]metric{}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %s %s %s\n", r.workload, m.name, strconv.FormatFloat(m.value, 'f', -1, 64), m.unit)
		byName[m.name] = m
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]jsonMetric{}}
	for _, c := range r.contract {
		m, ok := byName[c.name]
		if !ok || m.unit != c.unit {
			return fmt.Errorf("metric %s (%s) was not measured", c.name, c.unit)
		}
		out.Metrics[c.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// check folds one run's outcome into the report: its failures, and whether
// it matches the first run, as every rerun of the same inputs must.
func (r *report) check(first, o outcome, what string) {
	r.attempted, r.failed = o.ops, o.failed
	if o.failed > 0 {
		r.correct = false
		for i, e := range o.errs {
			if i == 5 {
				r.notes = append(r.notes, fmt.Sprintf("... %d more failures", len(o.errs)-i))
				break
			}
			r.notes = append(r.notes, "FAILED "+e)
		}
	}
	if !o.same(first) {
		r.correct = false
		r.notes = append(r.notes, "FAILED "+what+" gave different simulated outputs than the first run")
	}
}

// wallNow reads the host clock. It times the harness and never feeds
// simulated state.
func wallNow() time.Time {
	//lint:allow nowalltime host-side timing of the benchmark itself
	return time.Now()
}

// timeBuild constructs the workload's system once and returns the wall time
// that took and the live heap it holds after a forced collection.
func timeBuild(w spec) (seconds, heapBytes float64) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	start := wallNow()
	sys := w.build(w.nodes)
	seconds = wallNow().Sub(start).Seconds()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(sys)
	return seconds, float64(ms.HeapAlloc) - float64(before)
}

// repetition runs the workload's fixed work once on a fresh system and
// returns the run phase's wall time and allocated bytes. With cpu set, the
// run phase is CPU-profiled into it.
//
// The garbage collector is paused for the run phase and collects before and
// after it. Its cost follows the bytes allocated, which alloc_mb reports and
// gates; left running, its pacing differs from one repetition to the next and
// made the fabric workload's run time vary by 15% between invocations, half
// of it collector time (see README.md).
func repetition(w spec, seed int64, prof sim.ProcProfiler, cpu *bytes.Buffer) (o outcome, runS, allocMB float64, err error) {
	var ms runtime.MemStats
	var start time.Time
	var alloc0 uint64
	gcPercent := 100
	o = w.run(runIn{seed: seed, nodes: w.nodes, work: w.work, prof: prof, built: func() {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		alloc0 = ms.TotalAlloc
		gcPercent = debug.SetGCPercent(-1)
		if cpu != nil {
			err = pprof.StartCPUProfile(cpu)
		}
		start = wallNow()
	}})
	runS = wallNow().Sub(start).Seconds()
	if cpu != nil && err == nil {
		pprof.StopCPUProfile()
	}
	debug.SetGCPercent(gcPercent)
	runtime.ReadMemStats(&ms)
	return o, runS, float64(ms.TotalAlloc-alloc0) / (1 << 20), err
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// measure reports the end-to-end metrics: set-up from dedicated builds, then
// timed repetitions of the fixed work until seconds have passed. Times are
// the fastest build and repetition: interference from other work on the
// host only ever slows one down, and on a shared host it comes in bursts
// that a median over a run's repetitions does not filter (see README.md).
func measure(w spec, seed int64, seconds float64) (*report, error) {
	var setup, heap []float64
	setupFor := math.Min(setupSeconds, seconds)
	for begin := wallNow(); len(setup) < setupBuilds || wallNow().Sub(begin).Seconds() < setupFor; {
		s, h := timeBuild(w)
		setup, heap = append(setup, s), append(heap, h)
	}

	rep := &report{workload: w.name, correct: true, contract: endToEnd}
	var first outcome
	var runs, allocs []float64
	for begin := wallNow(); len(runs) == 0 || wallNow().Sub(begin).Seconds() < seconds; {
		o, runS, allocMB, err := repetition(w, seed, nil, nil)
		if err != nil {
			return nil, err
		}
		if len(runs) == 0 {
			first = o
		}
		rep.check(first, o, fmt.Sprintf("repetition %d", len(runs)+1))
		runs, allocs = append(runs, runS), append(allocs, allocMB)
	}

	rep.metrics = []metric{
		{"run_s", slices.Min(runs), "s"},
		{"setup_s", slices.Min(setup), "s"},
		{"heap_mb", median(heap) / (1 << 20), "MiB"},
		{"alloc_mb", median(allocs), "MiB"},
		{"sim_time_us", float64(first.simTime) / float64(sim.Microsecond), "us"},
		{"sim_lat_p50_ns", float64(first.p50), "ns"},
		{"sim_lat_p99_ns", float64(first.p99), "ns"},
		{"ops", float64(first.ops), "count"},
		{"failed_frac", float64(first.failed) / float64(first.ops), "ratio"},
		{"run_s_median", median(runs), "s"},
		{"reps", float64(len(runs)), "count"},
		{"events", float64(first.events), "count"},
	}
	rep.notes = append(rep.notes, fmt.Sprintf("digest %016x", first.digest))
	return rep, nil
}

// measureLayers reports the per-layer metrics. It alternates untraced and
// traced repetitions — traced with a counting profiler on the engine and a
// CPU profile of the run phase — until seconds have passed, so the untraced
// reference time and the traced time are taken side by side. Every
// repetition must reproduce the first one's simulated outputs exactly.
func measureLayers(w spec, seed int64, seconds float64) (*report, error) {
	_, heap := timeBuild(w)
	rep := &report{workload: w.name, correct: true, contract: perLayer}
	t := traced{heap: heap, hostNs: map[string]int64{}}
	var first outcome
	var plainS, tracedS []float64
	for begin := wallNow(); len(tracedS) == 0 || wallNow().Sub(begin).Seconds() < seconds; {
		o, runS, _, err := repetition(w, seed, nil, nil)
		if err != nil {
			return nil, err
		}
		if len(plainS) == 0 {
			first = o
		}
		rep.check(first, o, fmt.Sprintf("untraced repetition %d", len(plainS)+1))
		plainS = append(plainS, runS)

		c := newCounter()
		var cpu bytes.Buffer
		o, runS, _, err = repetition(w, seed, c, &cpu)
		if err != nil {
			return nil, err
		}
		rep.check(first, o, fmt.Sprintf("traced repetition %d", len(tracedS)+1))
		p, err := parseProfile(cpu.Bytes())
		if err != nil {
			return nil, err
		}
		if err := hostTime(p, t.hostNs); err != nil {
			return nil, err
		}
		t.o, t.c = o, c
		tracedS = append(tracedS, runS)
	}
	t.runS = slices.Min(plainS)
	t.overhead = slices.Min(tracedS) / t.runS

	var err error
	if rep.metrics, err = layerMetrics(w, t); err != nil {
		return nil, err
	}
	rep.metrics = append(rep.metrics, metric{"reps", float64(len(tracedS)), "count"})
	return rep, nil
}
