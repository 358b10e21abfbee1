// voyager-run executes a configurable message-passing workload on a
// simulated StarT-Voyager machine and reports hardware-level statistics —
// a quick way to poke at the machine without writing a program.
//
// Usage:
//
//	voyager-run [-nodes n1,n2,...] [-mech basic|express|tagon|dma|reliable] [-count c] [-size s]
//	            [-faults plan] [-trace file.json] [-metrics file.json] [-dump n]
//	            [-path file.json] [-waterfall n]
//	            [-series file.json] [-series-window 20us] [-strict-trace]
//	            [-prof f] [-seeds 1,2,3] [-parallel n] [-cpuprofile f] [-memprofile f]
//
// The artifact flags are the shared internal/bench.Artifacts set, also used
// by voyager-bench; -dump, -path and -waterfall are this tool's own.
//
// -trace writes a Chrome trace-event (Perfetto) file of the run; open it at
// ui.perfetto.dev, where flow arrows link each message's events across
// tracks. -metrics dumps the hierarchical metrics registry as JSON. Both
// are byte-identical across runs with the same arguments. The trace ring is
// attached only for -trace, -dump, -path, -waterfall and -strict-trace, so
// only then do the metrics and series exports carry its trace/ gauges.
//
// -path and -waterfall are the causal critical-path report: every traced
// message's lifecycle reconstructed from the trace ring, with its
// end-to-end latency attributed to named pipeline stages (tx-queue-wait,
// bus-tenure, net-flight, rx-queue-wait, sp-dispatch, retransmit-penalty,
// ...). -path writes the voyager-path/v1 JSON document of every chain;
// -waterfall n prints, after the run report, the per-stage breakdown of the
// n slowest chains and their aggregate attribution. Either adds the
// per-stage latency histograms of every chain to -metrics under path/.
//
// -series attaches the windowed telemetry sampler (window width set by
// -series-window, simulated time) and writes the voyager-series/v1 export:
// per-window min/max/sum/count for every registered metric, O(windows)
// memory however long the run. Render it with voyager-stats. The sampler
// scrapes out of band and never perturbs simulated outcomes.
//
// -strict-trace attaches the trace ring and exits nonzero when it dropped
// events — the CI guard that a run's trace artifact is complete.
//
// -prof writes the simulated-time profile as voyager-prof/v1 JSON;
// voyager-prof renders it and re-exports it as folded stacks (-folded) or
// pprof protobuf (-pprof).
//
// -faults attaches a deterministic fault-injection plan to the network, e.g.
//
//	voyager-run -mech reliable -faults 'seed=7,drop=0.05,corrupt=0.02'
//	voyager-run -mech reliable -faults 'outage=1-0@20us:200us'
//
// See internal/fault.ParsePlan for the full plan grammar (drop/corrupt/dup/
// delay per lane, link outage windows, node deaths). Only reliable delivery
// recovers a lost packet, so a plan that can lose one (a drop or corrupt
// rate, an outage, a death) with any other -mech exits 1 with a -faults:
// error before the run; dup-only and delay-only plans take any mechanism.
//
// -nodes takes a comma-separated machine-size list: a single count runs the
// workload once with full reporting; several counts run a node-count sweep
// and print one deterministic summary row per size (combinable with
// -parallel, not with the per-run artifact flags).
//
// -seeds runs the workload once per listed seed (each run re-seeds the fault
// plan) and prints a per-seed summary table — the quick schedule-robustness
// sweep. Each seed's machine is independent, so -parallel n fans the runs
// across up to n OS workers; the table is identical at any worker count.
// -seeds cannot be combined with the per-run artifacts (-trace/-metrics/-dump
// and the rest).
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the simulator
// itself (inspect with `go tool pprof`); they profile the host process and
// never perturb simulated time.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"startvoyager/internal/bench"
	"startvoyager/internal/cluster"
	"startvoyager/internal/fault"
	"startvoyager/internal/stats"
)

// runOpts is one machine run's configuration.
type runOpts struct {
	nodes int
	drive bench.AllToOne
	plan  *fault.Plan
	art   *bench.Artifacts
}

// runResult is one run's machine and instruments plus the delivery and
// recovery counters the reports print.
type runResult struct {
	bench.Run
	bench.Delivery
	bench.RecoveryStats
}

// runOnce builds a machine, drives the all-to-one traffic pattern, and
// collects delivery/recovery counters. It is a pure function of its options,
// so independent runs may execute on parallel workers.
func runOnce(o runOpts) runResult {
	cfg := cluster.DefaultConfig(o.nodes)
	cfg.Faults = o.plan
	r := runResult{Run: o.art.Start(cfg)}
	delivery := o.drive.Spawn(r.M)
	r.M.Run()
	r.Delivery = *delivery
	r.RecoveryStats = bench.Recovery(r.M)
	return r
}

func main() {
	var art bench.Artifacts
	art.Register(flag.CommandLine)
	var drive bench.AllToOne
	nodes := flag.String("nodes", "4", "comma-separated node counts (all-to-one traffic; more than one count runs a sweep)")
	flag.StringVar(&drive.Mech, "mech", "basic", "mechanism: basic, express, tagon, dma, reliable")
	flag.IntVar(&drive.Count, "count", 100, "messages (or transfers) per sender")
	flag.IntVar(&drive.Size, "size", 64, "payload bytes (dma: transfer bytes, line-aligned)")
	faults := flag.String("faults", "", "fault-injection plan (e.g. 'seed=7,drop=0.05,outage=1-0@20us:200us')")
	flag.IntVar(&art.Dump, "dump", 0, "print the last N structured trace events")
	flag.StringVar(&art.Path, "path", "", "write the critical-path analysis of every message chain (voyager-path/v1 JSON)")
	flag.IntVar(&art.Waterfall, "waterfall", 0, "print the critical-path waterfall of the N slowest message chains")
	seeds := flag.String("seeds", "", "comma-separated fault-plan seeds: run once per seed and print a summary table")
	parallelN := flag.Int("parallel", 1, "max OS worker goroutines for the -seeds sweep (output is identical at any value)")
	flag.Parse()

	nodeCounts, err := bench.ParseNodeList(*nodes)
	if err != nil {
		log.Fatalf("-nodes: %v", err)
	}
	var plan *fault.Plan
	if *faults != "" {
		plan, err = fault.ParsePlan(*faults)
		if err != nil {
			log.Fatalf("-faults: %v", err)
		}
	}
	if err := drive.Check(plan); err != nil {
		log.Fatal(err)
	}
	stopProfiles := art.StartProfiles()
	defer stopProfiles()
	opts := runOpts{nodes: nodeCounts[0], drive: drive, plan: plan, art: &art}

	if len(nodeCounts) > 1 {
		if art.Requested() || *seeds != "" {
			log.Fatalf("a -nodes sweep cannot be combined with -trace, -metrics, -series, -prof, -dump, -path, -waterfall, or -seeds")
		}
		var keys []string
		var runs []runOpts
		for _, n := range nodeCounts {
			o := opts
			o.nodes = n
			keys, runs = append(keys, fmt.Sprint(n)), append(runs, o)
		}
		sweep(fmt.Sprintf("node-count sweep — mechanism=%s messages/sender=%d", drive.Mech, drive.Count),
			"nodes", keys, runs, *parallelN)
		return
	}
	if *seeds != "" {
		if art.Requested() {
			log.Fatalf("-seeds cannot be combined with -trace, -metrics, -series, -prof, -dump, -path, or -waterfall")
		}
		var keys []string
		var runs []runOpts
		for _, part := range strings.Split(*seeds, ",") {
			seed, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
			if err != nil {
				log.Fatalf("-seeds: %v", err)
			}
			o := opts
			if plan != nil {
				p := *plan
				p.Seed = seed
				o.plan = &p
			}
			keys, runs = append(keys, fmt.Sprint(seed)), append(runs, o)
		}
		sweep(fmt.Sprintf("multi-seed sweep — mechanism=%s nodes=%d messages=%d per seed",
			drive.Mech, opts.nodes, (opts.nodes-1)*drive.Count), "seed", keys, runs, *parallelN)
		if plan == nil {
			fmt.Println("note: no -faults plan attached; seeds have nothing to re-seed, runs are identical")
		}
		return
	}

	r := runOnce(opts)
	report(opts, r)
	meta := stats.RunMeta{Tool: "voyager-run", Mechanism: drive.Mech, FaultPlan: *faults}
	if plan != nil {
		meta.Seed = plan.Seed
	}
	if err := art.Write(r.Run, meta); err != nil {
		fmt.Fprintln(os.Stderr, err)
		stopProfiles()
		os.Exit(1)
	}
}

// sweep executes runs across up to workers goroutines and prints one
// outcome row per run, keyed by keys, in listed order. Each run owns its
// machine and its counters are deterministic, so the table is
// byte-identical at any -parallel value.
func sweep(title, key string, keys []string, runs []runOpts, workers int) {
	results := bench.Cells(len(runs), workers, func(i int) runResult { return runOnce(runs[i]) })
	t := &stats.Table{Title: title, Columns: []string{key, "delivered", "failed",
		"retransmits", "dup-suppressed", "rx-garbage", "sim-time"}}
	for i, r := range results {
		t.AddRow(keys[i], fmt.Sprint(r.Received), fmt.Sprint(r.Failed),
			fmt.Sprint(r.Retransmits), fmt.Sprint(r.DupSuppressed), fmt.Sprint(r.RxGarbage),
			r.M.Eng.Now().String())
	}
	fmt.Print(t)
}

// report prints the single-run statistics.
func report(opts runOpts, r runResult) {
	m := r.M
	total := (opts.nodes - 1) * opts.drive.Count
	fmt.Printf("mechanism=%s nodes=%d messages=%d simulated=%v\n",
		opts.drive.Mech, opts.nodes, total, m.Eng.Now())
	if opts.drive.Mech == "reliable" {
		fmt.Printf("reliable: delivered=%d failed=%d bound=%v\n", r.Received, r.Failed, m.RelBound())
	}
	if m.Faults != nil {
		fs := m.Faults.Stats()
		fmt.Printf("faults: drops=%d corrupted=%d duplicated=%d delayed=%d outage-drops=%d death-drops=%d\n",
			fs.InjectedDrops, fs.Corrupted, fs.Duplicated, fs.Delayed, fs.OutageDrops, fs.DeathDrops)
		fmt.Printf("recovery: retransmits=%d dup-suppressed=%d rx-garbage=%d\n",
			r.Retransmits, r.DupSuppressed, r.RxGarbage)
	}
	t := &stats.Table{
		Title:   "per-node statistics",
		Columns: []string{"node", "aP-busy", "sP-busy", "bus-busy", "ibus-busy", "tx-msgs", "rx-msgs"},
	}
	for _, n := range m.Nodes {
		cs := n.Ctrl.Stats()
		t.AddRow(fmt.Sprint(n.ID),
			n.APMeter.BusyTime().String(),
			n.FW.BusyTime().String(),
			n.Bus.BusyTime().String(),
			n.Ctrl.IBusBusyTime().String(),
			fmt.Sprint(cs.TxMessages),
			fmt.Sprint(cs.RxMessages))
	}
	fmt.Print(t)
}
