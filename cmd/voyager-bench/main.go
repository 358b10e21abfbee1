// voyager-bench regenerates the paper's evaluation figures on the simulated
// machine and prints them as tables.
//
// Usage:
//
//	voyager-bench [-fig 3|4|ext-a|ext-b|ext-c|all|none]
//	              [-trace file.json] [-metrics file.json] [-trace-cap n]
//	              [-series file.json] [-series-window 20us] [-strict-trace]
//	              [-headline file.json] [-parallel n] [-micro file.json]
//	              [-scale file.json] [-scale-diff baseline.json] [-nodes 64,256,1024]
//	              [-cpuprofile file] [-memprofile file]
//
// -trace / -metrics / -series / -prof execute the canonical instrumented run
// (every mechanism on a four-node machine) and export its Perfetto trace /
// metrics registry / windowed voyager-series/v1 telemetry / simulated-time
// profile; combine with -fig none to produce only the observability
// artifacts. -strict-trace exits nonzero if the canonical run's trace ring
// dropped events. These are the shared internal/bench.Artifacts flags, so
// they behave as in voyager-run: the trace ring is attached only for -trace
// or -strict-trace, and -metrics or -series alone carry no trace/ gauges.
//
// -headline writes the deterministic headline latencies (mean traced
// end-to-end latency per MP mechanism) as JSON. BENCH_baseline.json in the
// repo root is the committed copy: `make bench-diff` writes a fresh one and
// byte-compares it, so any change fails CI until `make bench-baseline`
// refreshes the file on purpose.
//
// -parallel n fans the independent cells of the headline probe across n
// worker goroutines. Each cell owns a private engine, so the latencies are
// identical at any -parallel value; only wall-clock changes.
//
// -micro runs the scheduler/handoff microbenchmark suite and records
// events/sec and allocs/op as JSON (`make bench-micro` keeps
// BENCH_micro.json current). -cpuprofile / -memprofile capture pprof
// profiles of whatever the invocation runs.
//
// -scale runs the machine-size sweep (-nodes, default 64,256,1024): per-node
// heap footprint, MPI allreduce/samplesort completion, and the
// per-tree-level hotspot saturation profile, written as voyager-scale/v1
// JSON (`make bench-scale-baseline` keeps BENCH_scale.json current). -scale-diff recomputes the sweep and exits nonzero if any
// bytes/node figure regressed more than 10% against the given baseline, or
// if any deterministic simulated column differs from it (`make bench-scale`
// is the CI gate). -nodes also overrides fig ext-f's machine sizes.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"startvoyager/internal/bench"
	"startvoyager/internal/cluster"
	"startvoyager/internal/stats"
	"startvoyager/internal/workload"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3, 4, ext-a..ext-l, all, none")
	headlineFile := flag.String("headline", "", "write the headline per-mechanism latencies as JSON")
	parallelN := flag.Int("parallel", 1, "worker goroutines for the headline probe's cells (output is byte-identical at any value)")
	microFile := flag.String("micro", "", "run the microbenchmark suite and write events/sec + allocs/op as JSON")
	scaleFile := flag.String("scale", "", "run the scale sweep and write bytes/node + sim results as JSON (voyager-scale/v1)")
	scaleDiff := flag.String("scale-diff", "", "diff the scale sweep against this baseline JSON; exit 1 on a >10% bytes/node regression or any simulated-column change")
	nodesFlag := flag.String("nodes", "", "comma-separated node counts for the scale sweep and fig ext-f (e.g. 64,256,1024)")
	var art bench.Artifacts
	art.Register(flag.CommandLine)
	flag.Parse()
	stopProfiles := art.StartProfiles()
	defer stopProfiles()

	ran := false
	if art.Requested() {
		r := art.Start(cluster.DefaultConfig(bench.CanonicalNodes))
		bench.Canonical(r.M)
		r.M.Run()
		if err := art.Write(r, stats.RunMeta{Tool: "voyager-bench", Mechanism: "mixed"}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			stopProfiles()
			os.Exit(1)
		}
		ran = true
	}
	if *headlineFile != "" {
		latencies := bench.HeadlineLatencies(*parallelN)
		bench.WriteFile(*headlineFile, func(w io.Writer) error { return bench.WriteHeadline(w, latencies) })
		fmt.Printf("headline: %s\n", *headlineFile)
		ran = true
	}
	var nodeCounts []int
	if *nodesFlag != "" {
		var err error
		nodeCounts, err = bench.ParseNodeList(*nodesFlag)
		if err != nil {
			log.Fatalf("-nodes: %v", err)
		}
	}
	if *scaleFile != "" || *scaleDiff != "" {
		// Read the baseline before anything writes to its path — -scale and
		// -scale-diff may legitimately point at the same file.
		var baseline []byte
		if *scaleDiff != "" {
			var err error
			baseline, err = os.ReadFile(*scaleDiff)
			if err != nil {
				log.Fatalf("-scale-diff: %v", err)
			}
		}
		results := bench.RunScale(bench.ScaleOpts{NodeCounts: nodeCounts})
		fmt.Print(bench.ScaleTable(results))
		fmt.Println()
		fmt.Print(bench.SaturationTable(results[len(results)-1]))
		fmt.Println()
		fmt.Print(bench.ScaleFootprintTable(results))
		fmt.Println()
		if *scaleFile != "" {
			bench.WriteFile(*scaleFile, func(w io.Writer) error { return bench.WriteScale(w, results) })
			fmt.Printf("scale: %s\n", *scaleFile)
		}
		if baseline != nil && !bench.DiffScale(baseline, results, os.Stdout) {
			stopProfiles()
			os.Exit(1)
		}
		ran = true
	}
	if *microFile != "" {
		results := bench.MicroBench()
		bench.WriteFile(*microFile, func(w io.Writer) error { return bench.WriteMicro(w, results) })
		for _, r := range results {
			fmt.Printf("micro: %-28s %12.1f ns/op %14.0f ops/s %6d allocs/op\n",
				r.Name, r.NsPerOp, r.OpsPerSec, r.AllocsPerOp)
		}
		fmt.Printf("micro: %s\n", *microFile)
		ran = true
	}
	show := func(name string, fn func()) {
		if *fig == "all" || *fig == name {
			fn()
			fmt.Println()
			ran = true
		}
	}
	show("3", func() { fmt.Print(bench.Fig3Latency(bench.Fig3Sizes)) })
	show("4", func() { fmt.Print(bench.Fig4Bandwidth(bench.Fig3Sizes)) })
	show("ext-a", func() { fmt.Print(bench.ExtAEarlyNotification(bench.Fig3Sizes)) })
	show("ext-b", func() { fmt.Print(bench.ExtBOccupancy(64 << 10)) })
	show("ext-c", func() { fmt.Print(bench.ExtCMechanisms()) })
	show("ext-d", func() { fmt.Print(bench.ExtDReflective()) })
	show("ext-e", func() { fmt.Print(bench.ExtEQueueCaching()) })
	show("ext-f", func() {
		counts := nodeCounts
		if counts == nil {
			counts = []int{2, 4, 8, 16}
		}
		fmt.Print(bench.ExtFCollectives(counts))
	})
	show("ext-g", func() {
		fmt.Print(bench.ExtGNetworkScaling(64 << 10))
		fmt.Println()
		fmt.Print(bench.ExtGTopology(64 << 10))
	})
	show("ext-h", func() { fmt.Print(bench.ExtHFirmwareSpeed(64 << 10)) })
	show("ext-i", func() { fmt.Print(bench.ExtIMultitasking()) })
	show("ext-j", func() {
		fmt.Print(workload.Table(8, 100, 64, []workload.Pattern{
			workload.Uniform, workload.Hotspot, workload.Neighbor, workload.Transpose}))
	})
	show("ext-k", func() {
		fmt.Print(bench.ExtKProtocolVariants())
		fmt.Println()
		fmt.Print(bench.ExtKStencil(64, 8, 4))
	})
	show("ext-l", func() { fmt.Print(bench.ExtLReliability(50, bench.ExtLDrops)) })
	if !ran && *fig != "none" {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		stopProfiles()
		os.Exit(2)
	}
}
