// voyager-path runs an instrumented message-passing workload and prints the
// causal critical-path report: every traced message's lifecycle reconstructed
// from the event ring, with its end-to-end latency attributed to named
// pipeline stages (tx-queue-wait, bus-tenure, net-flight, rx-queue-wait,
// sp-dispatch, retransmit-penalty, ...) — the paper's Section 6 style
// "where does each microsecond go" breakdown, per mechanism.
//
// Usage:
//
//	voyager-path [-nodes n] [-mech basic|express|tagon|dma|reliable] [-count c]
//	             [-size s] [-faults plan] [-top n] [-json] [-metrics file.json]
//	             [-trace file.json] [-trace-cap n]
//
// Output is deterministic: two runs with the same arguments produce
// byte-identical reports. -json replaces the text waterfall with the
// voyager-path/v1 JSON document (run metadata, summary counts, aggregate
// stage attribution, and every chain's per-stage breakdown) on stdout. -top limits the per-message waterfall blocks to the
// n slowest delivered messages (0 = all). -metrics adds the per-stage latency
// histograms to the dumped registry under path/. -trace writes the Perfetto
// export, whose flow arrows link each message's events across tracks.
//
// -faults follows voyager-run's rule: a plan that can lose a packet (a drop
// or corrupt rate, an outage, a death) needs -mech reliable, and any other
// mechanism exits 1 with a -faults: error before the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"startvoyager/internal/bench"
	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/fault"
	"startvoyager/internal/stats"
	"startvoyager/internal/trace"
)

func main() {
	var drive bench.AllToOne
	nodes := flag.Int("nodes", 2, "number of nodes (all-to-one traffic)")
	flag.StringVar(&drive.Mech, "mech", "basic", "mechanism: basic, express, tagon, dma, reliable")
	flag.IntVar(&drive.Count, "count", 8, "messages (or transfers) per sender")
	flag.IntVar(&drive.Size, "size", 32, "payload bytes (dma: transfer bytes, line-aligned)")
	faults := flag.String("faults", "", "fault-injection plan (e.g. 'seed=7,drop=0.05')")
	top := flag.Int("top", 0, "show only the n slowest delivered messages (0 = all)")
	jsonOut := flag.Bool("json", false, "emit the voyager-path/v1 JSON document instead of the text waterfall")
	metricsFile := flag.String("metrics", "", "write the metrics registry (with path/ histograms) as JSON")
	traceFile := flag.String("trace", "", "write a Perfetto trace with per-message flow arrows")
	traceCap := flag.Int("trace-cap", 1<<19, "trace ring capacity (oldest events drop beyond this)")
	flag.Parse()

	cfg := cluster.DefaultConfig(*nodes)
	if *faults != "" {
		plan, err := fault.ParsePlan(*faults)
		if err != nil {
			log.Fatalf("-faults: %v", err)
		}
		cfg.Faults = plan
	}
	if err := drive.Check(cfg.Faults); err != nil {
		log.Fatal(err)
	}
	m := core.NewMachineConfig(cfg)
	tbuf := m.Trace(*traceCap)
	delivery := drive.Spawn(m)
	m.Run()
	if delivery.Failed > 0 {
		fmt.Fprintf(os.Stderr, "reliable: %d sends failed\n", delivery.Failed)
	}

	analysis := trace.AnalyzePaths(tbuf.Events())
	if *top > 0 {
		analysis = analysis.Slowest(*top)
	}
	meta := &stats.RunMeta{Tool: "voyager-path", Mechanism: drive.Mech, Nodes: *nodes,
		FaultPlan: *faults, SimTimeNs: int64(m.Eng.Now())}
	if cfg.Faults != nil {
		meta.Seed = cfg.Faults.Seed
	}
	if *jsonOut {
		// Pure JSON on stdout: the header line would corrupt the document.
		if err := analysis.WriteJSON(os.Stdout, meta); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Printf("mechanism=%s nodes=%d senders=%d count=%d simulated=%v\n\n",
			drive.Mech, *nodes, *nodes-1, drive.Count, m.Eng.Now())
		if err := analysis.WriteWaterfall(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	if *metricsFile != "" {
		analysis.RegisterMetrics(m.Metrics().Child("path"))
		bench.WriteFile(*metricsFile, func(w io.Writer) error {
			return m.Metrics().WriteJSONMeta(w, m.Eng.Now(), meta)
		})
		if !*jsonOut {
			fmt.Printf("\nmetrics: %s\n", *metricsFile)
		}
	}
	if *traceFile != "" {
		bench.WriteFile(*traceFile, tbuf.WritePerfetto)
		if !*jsonOut {
			fmt.Printf("\ntrace: %s\n", *traceFile)
		}
	}
	if d := tbuf.Stats().Dropped; d > 0 {
		fmt.Fprintf(os.Stderr, "WARNING: trace ring dropped %d events; chains may be orphaned (raise -trace-cap)\n", d)
	}
}
