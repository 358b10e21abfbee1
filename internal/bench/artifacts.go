package bench

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/prof"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
	"startvoyager/internal/trace"
)

// Artifacts is the one declaration of a run's artifact flags, shared by
// voyager-run and voyager-bench: Register binds them, Start instruments one
// machine run, Write exports what was asked for. The spec is read-only once
// the flags are parsed, so parallel workers may Start runs from one spec;
// each run's instruments live in the Run value Start returns.
type Artifacts struct {
	Trace, Metrics, Series string // export paths; "" = not requested
	Prof                   string // simulated-time profile (voyager-prof/v1 JSON)
	CPUProfile, MemProfile string // host-process pprof profiles
	TraceCap               int
	SeriesWindow           sim.Time // -series window width
	StrictTrace            bool

	// Dump, Path and Waterfall have no shared flag: voyager-run registers
	// its own -dump, -path and -waterfall into them. Dump prints the last
	// Dump trace events after the file exports; Path writes the
	// critical-path analysis of every traced message chain (voyager-path/v1
	// JSON); Waterfall prints the waterfall of the Waterfall slowest chains.
	// Either path export adds the path/ stage histograms to -metrics.
	Dump      int
	Path      string
	Waterfall int
}

// Register declares the shared artifact flags on fs.
func (a *Artifacts) Register(fs *flag.FlagSet) {
	fs.StringVar(&a.Trace, "trace", "", "write a Perfetto/Chrome trace-event JSON file")
	fs.StringVar(&a.Metrics, "metrics", "", "write the metrics registry as JSON")
	fs.IntVar(&a.TraceCap, "trace-cap", 1<<18, "trace ring capacity (oldest events drop beyond this)")
	fs.StringVar(&a.Series, "series", "", "write windowed time-series telemetry (voyager-series/v1, render with voyager-stats)")
	a.SeriesWindow = 20 * sim.Microsecond
	fs.Func("series-window", "simulated-time window width for -series (Go duration, default 20us)", func(s string) error {
		w, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("invalid duration %q", s)
		}
		window := sim.Time(w.Nanoseconds())
		if err := stats.CheckWindow(window); err != nil {
			return err
		}
		a.SeriesWindow = window
		return nil
	})
	fs.BoolVar(&a.StrictTrace, "strict-trace", false, "exit nonzero if the trace ring dropped events (implies tracing)")
	fs.StringVar(&a.Prof, "prof", "", "write a simulated-time profile (voyager-prof/v1 JSON, render with voyager-prof)")
	fs.StringVar(&a.CPUProfile, "cpuprofile", "", "write a CPU profile of the simulator process")
	fs.StringVar(&a.MemProfile, "memprofile", "", "write an allocation profile of the simulator process")
}

// Requested reports whether any per-run export was asked for.
func (a *Artifacts) Requested() bool {
	return a.tracing() || a.Metrics != "" || a.Series != "" || a.Prof != ""
}

// tracing is the one trace-attach rule: the ring is attached only when its
// contents are exported (-trace, -dump), analyzed (-path, -waterfall) or
// checked (-strict-trace), so a run's metrics and series carry trace/
// gauges only then.
func (a *Artifacts) tracing() bool {
	return a.Trace != "" || a.Dump > 0 || a.StrictTrace || a.paths()
}

// paths reports whether a critical-path export was asked for.
func (a *Artifacts) paths() bool { return a.Path != "" || a.Waterfall > 0 }

// Run is one machine run and the instruments Start attached to it.
type Run struct {
	M        *core.Machine
	Trace    *trace.Buffer // nil unless the attach rule holds
	sampler  *stats.Sampler
	profiler *prof.Profiler
}

// Start builds the machine for one run and attaches the requested
// instruments in the order that keeps every export byte-stable: the
// profiler through cfg, so firmware loops spawned during construction are
// accounted from time zero; then the trace ring, whose trace/ gauges join
// the registry; then the sampler, which snapshots the registry's paths.
func (a *Artifacts) Start(cfg cluster.Config) Run {
	var r Run
	if a.Prof != "" {
		r.profiler = prof.New()
		cfg.Profiler = r.profiler
	}
	r.M = core.NewMachineConfig(cfg)
	if a.tracing() {
		r.Trace = r.M.Trace(a.TraceCap)
	}
	if a.Series != "" {
		r.sampler = r.M.Series(a.SeriesWindow)
	}
	return r
}

// Write finishes r's instruments and writes every requested export, with
// meta (Nodes and SimTimeNs filled in from the run) as the header of the
// metrics, path, series and profile documents. It prints one status line
// per file, warns on stderr when the trace ring dropped events, and returns
// an error when it did under -strict-trace.
func (a *Artifacts) Write(r Run, meta stats.RunMeta) error {
	now := r.M.Eng.Now()
	meta.Nodes, meta.SimTimeNs = len(r.M.Nodes), int64(now)
	if r.sampler != nil {
		r.sampler.Finish()
	}
	if r.profiler != nil {
		r.profiler.Finish(now)
	}

	var dropped uint64
	if r.Trace != nil {
		ts := r.Trace.Stats()
		if a.Trace != "" {
			WriteFile(a.Trace, r.Trace.WritePerfetto)
			fmt.Printf("trace: %s (%d events captured, %d retained)\n", a.Trace, ts.Captured, ts.Retained)
		}
		if dropped = ts.Dropped; dropped > 0 {
			fmt.Fprintf(os.Stderr, "WARNING: trace ring dropped %d events; the trace is truncated (raise -trace-cap)\n", dropped)
		}
	}
	var chains *trace.PathAnalysis
	if a.paths() {
		chains = trace.AnalyzePaths(r.Trace.Events())
		chains.RegisterMetrics(r.M.Metrics().Child("path"))
	}
	if a.Path != "" {
		WriteFile(a.Path, func(w io.Writer) error { return chains.WriteJSON(w, &meta) })
		fmt.Printf("path: %s (%d chains)\n", a.Path, len(chains.Msgs))
	}
	if a.Metrics != "" {
		WriteFile(a.Metrics, func(w io.Writer) error { return r.M.Metrics().WriteJSONMeta(w, now, &meta) })
		fmt.Printf("metrics: %s\n", a.Metrics)
	}
	if r.sampler != nil {
		WriteFile(a.Series, func(w io.Writer) error { return r.sampler.WriteJSON(w, &meta) })
		fmt.Printf("series: %s (%d windows of %v, render with voyager-stats)\n",
			a.Series, r.sampler.Windows(), r.sampler.Window())
	}
	if a.Dump > 0 {
		evs := r.Trace.Events()
		if len(evs) > a.Dump {
			evs = evs[len(evs)-a.Dump:]
		}
		fmt.Printf("\nlast %d structured trace events:\n", len(evs))
		for _, e := range evs {
			fmt.Println(e.String())
		}
	}
	if r.profiler != nil {
		// voyager-prof renders the document and re-exports it as folded
		// stacks or pprof protobuf.
		WriteFile(a.Prof, r.profiler.Doc(&meta).WriteJSON)
		fmt.Printf("prof: %s (render with voyager-prof)\n", a.Prof)
	}
	if a.Waterfall > 0 {
		fmt.Println()
		if err := chains.Slowest(a.Waterfall).WriteWaterfall(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if a.StrictTrace && dropped > 0 {
		return fmt.Errorf("strict-trace: ring dropped %d events", dropped)
	}
	return nil
}

// StartProfiles begins the requested host-process pprof captures and
// returns an idempotent stop that flushes them; it must run before every
// exit path (os.Exit skips deferred calls). Host profiling never perturbs
// simulated time.
func (a *Artifacts) StartProfiles() (stop func()) {
	var cpuF *os.File
	if a.CPUProfile != "" {
		f, err := os.Create(a.CPUProfile)
		if err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
		cpuF = f
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				log.Fatalf("-cpuprofile: %v", err)
			}
		}
		if a.MemProfile != "" {
			f, err := os.Create(a.MemProfile)
			if err != nil {
				log.Fatalf("-memprofile: %v", err)
			}
			runtime.GC() // materialize the final live-heap picture
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Fatalf("-memprofile: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Fatalf("-memprofile: %v", err)
			}
		}
	}
}

// WriteFile creates path, fills it with write, and closes it, exiting the
// process on any error: the CLIs' one artifact writer.
func WriteFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}
