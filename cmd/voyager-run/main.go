// voyager-run executes a configurable message-passing workload on a
// simulated StarT-Voyager machine and reports hardware-level statistics —
// a quick way to poke at the machine without writing a program.
//
// Usage:
//
//	voyager-run [-nodes n1,n2,...] [-mech basic|express|dma|reliable] [-count c] [-size s]
//	            [-faults plan] [-trace file.json] [-metrics file.json] [-dump n]
//	            [-series file.json] [-series-window 20us] [-strict-trace]
//	            [-prof f] [-prof-folded f] [-prof-pprof f]
//	            [-seeds 1,2,3] [-parallel n] [-cpuprofile f] [-memprofile f]
//
// The artifact flags are the shared internal/bench.Artifacts set, also used
// by voyager-bench; -dump is this tool's own.
//
// -trace writes a Chrome trace-event (Perfetto) file of the run; open it at
// ui.perfetto.dev. -metrics dumps the hierarchical metrics registry as JSON.
// Both are byte-identical across runs with the same arguments. The trace
// ring is attached only for -trace, -dump and -strict-trace, so only then
// do the metrics and series exports carry its trace/ gauges.
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
// -faults attaches a deterministic fault-injection plan to the network, e.g.
//
//	voyager-run -mech reliable -faults 'seed=7,drop=0.05,corrupt=0.02'
//	voyager-run -mech reliable -faults 'outage=1-0@20us:200us'
//
// See internal/fault.ParsePlan for the full plan grammar (drop/corrupt/dup/
// delay per lane, link outage windows, node deaths).
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
// -seeds cannot be combined with the per-run artifacts (-trace/-metrics/-dump).
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
	retrans, dups, garbage uint64
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
	for _, rel := range r.M.Rels {
		st := rel.Stats()
		r.retrans += st.Retransmits
		r.dups += st.DupSuppressed
	}
	for _, n := range r.M.Nodes {
		r.garbage += n.Ctrl.Stats().RxGarbage
	}
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
	seeds := flag.String("seeds", "", "comma-separated fault-plan seeds: run once per seed and print a summary table")
	parallelN := flag.Int("parallel", 1, "max OS worker goroutines for the -seeds sweep (output is identical at any value)")
	flag.Parse()

	nodeCounts, err := bench.ParseNodeList(*nodes)
	if err != nil {
		log.Fatalf("-nodes: %v", err)
	}
	if err := drive.Check(); err != nil {
		log.Fatal(err)
	}
	var plan *fault.Plan
	if *faults != "" {
		plan, err = fault.ParsePlan(*faults)
		if err != nil {
			log.Fatalf("-faults: %v", err)
		}
	}
	stopProfiles := art.StartProfiles()
	defer stopProfiles()
	opts := runOpts{nodes: nodeCounts[0], drive: drive, plan: plan, art: &art}

	if len(nodeCounts) > 1 {
		if art.Requested() || *seeds != "" {
			log.Fatalf("a -nodes sweep cannot be combined with -trace, -metrics, -series, -prof, -dump, or -seeds")
		}
		runNodeSweep(opts, nodeCounts, *parallelN)
		return
	}
	if *seeds != "" {
		if art.Requested() {
			log.Fatalf("-seeds cannot be combined with -trace, -metrics, -series, -prof, or -dump")
		}
		runSweep(opts, parseSeeds(*seeds), *parallelN)
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

// parseSeeds parses the -seeds list.
func parseSeeds(s string) []uint64 {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		seed, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			log.Fatalf("-seeds: %v", err)
		}
		out = append(out, seed)
	}
	return out
}

// runNodeSweep executes one run per machine size across up to workers
// goroutines and prints the per-size summary in listed order. Delivery
// counters and simulated time are deterministic per size, so the table is
// byte-identical at any -parallel value.
func runNodeSweep(opts runOpts, counts []int, workers int) {
	results := bench.Cells(len(counts), workers, func(i int) runResult {
		o := opts
		o.nodes = counts[i]
		return runOnce(o)
	})
	t := &stats.Table{
		Title: fmt.Sprintf("node-count sweep — mechanism=%s messages/sender=%d",
			opts.drive.Mech, opts.drive.Count),
		Columns: []string{"nodes", "delivered", "failed", "retransmits",
			"dup-suppressed", "rx-garbage", "sim-time"},
	}
	for i, r := range results {
		t.AddRow(fmt.Sprint(counts[i]),
			fmt.Sprint(r.Received), fmt.Sprint(r.Failed),
			fmt.Sprint(r.retrans), fmt.Sprint(r.dups), fmt.Sprint(r.garbage),
			r.M.Eng.Now().String())
	}
	fmt.Print(t)
}

// runSweep executes one run per seed (re-seeding the fault plan) across up
// to workers goroutines and prints the per-seed summary in seed order.
func runSweep(opts runOpts, seedList []uint64, workers int) {
	results := bench.Cells(len(seedList), workers, func(i int) runResult {
		o := opts
		if opts.plan != nil {
			p := *opts.plan
			p.Seed = seedList[i]
			o.plan = &p
		}
		return runOnce(o)
	})
	t := &stats.Table{
		Title: fmt.Sprintf("multi-seed sweep — mechanism=%s nodes=%d messages=%d per seed",
			opts.drive.Mech, opts.nodes, (opts.nodes-1)*opts.drive.Count),
		Columns: []string{"seed", "delivered", "failed", "retransmits",
			"dup-suppressed", "rx-garbage", "sim-time"},
	}
	for i, r := range results {
		t.AddRow(fmt.Sprint(seedList[i]),
			fmt.Sprint(r.Received), fmt.Sprint(r.Failed),
			fmt.Sprint(r.retrans), fmt.Sprint(r.dups), fmt.Sprint(r.garbage),
			r.M.Eng.Now().String())
	}
	fmt.Print(t)
	if opts.plan == nil {
		fmt.Println("note: no -faults plan attached; seeds have nothing to re-seed, runs are identical")
	}
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
			r.retrans, r.dups, r.garbage)
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
