// voyager-net characterizes the Arctic fat-tree fabric in isolation:
// unloaded latency by hop count, and aggregate throughput under uniform
// random all-to-all traffic.
//
// Usage:
//
//	voyager-net [-nodes n1,n2,...] [-packets p] [-trace file.json] [-metrics file.json]
//
// -nodes takes a comma-separated list of fabric sizes (e.g. 16,64,256); the
// whole characterization runs once per size. -trace / -metrics instrument
// the deterministic-routing load test of the LAST listed size and export its
// Perfetto trace / fabric metrics. The metrics open with the run-metadata
// header every metrics export carries (tool, nodes, simulated time).
//
// The two flags are this tool's own rather than the internal/bench.Artifacts
// set: the load test runs a bare fabric, with no machine for
// Artifacts.Start(cluster.Config) to build.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"

	"startvoyager/internal/arctic"
	"startvoyager/internal/bench"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
	"startvoyager/internal/trace"
)

func main() {
	nodesList := flag.String("nodes", "16", "comma-separated endpoint counts (e.g. 16,64,256)")
	packets := flag.Int("packets", 2000, "packets for the load test")
	traceFile := flag.String("trace", "", "write a Perfetto trace of the deterministic load test")
	metricsFile := flag.String("metrics", "", "write the fabric metrics of the deterministic load test as JSON")
	flag.Parse()

	counts, err := bench.ParseNodeList(*nodesList)
	if err != nil {
		log.Fatalf("-nodes: %v", err)
	}
	for i, nodes := range counts {
		if i > 0 {
			fmt.Println()
		}
		// Artifacts instrument one run only — the last listed size.
		instrument := i == len(counts)-1
		characterize(nodes, *packets, instrument, *traceFile, *metricsFile)
	}
}

// characterize runs the unloaded-latency probe and the uniform-random load
// test (deterministic and adaptive routing) on a fabric of the given size.
func characterize(nodes, packets int, instrument bool, traceFile, metricsFile string) {
	// Unloaded latency by destination distance.
	eng := sim.NewEngine()
	f := arctic.NewFatTree(eng, nodes, arctic.DefaultConfig())
	arrival := make(map[int]sim.Time)
	for i := 0; i < nodes; i++ {
		i := i
		f.Attach(i, arctic.EndpointFunc(func(p *arctic.Packet) {
			arrival[i] = eng.Now() - p.InjectedAt()
		}))
	}
	t := &stats.Table{
		Title:   fmt.Sprintf("unloaded latency, %d-node fat tree (96B packets)", nodes),
		Columns: []string{"dst", "hops", "latency"},
	}
	for _, dst := range []int{1, nodes / 4, nodes - 1} {
		if dst <= 0 || dst >= nodes {
			continue
		}
		eng.Schedule(0, func() {
			f.Inject(&arctic.Packet{Src: 0, Dst: dst, Priority: arctic.Low, Size: 96})
		})
		eng.Run()
		t.AddRow(fmt.Sprint(dst), fmt.Sprint(f.HopCount(0, dst)), arrival[dst].String())
	}
	fmt.Print(t)
	fmt.Println()

	// Uniform random load, deterministic vs adaptive routing.
	for _, adaptive := range []bool{false, true} {
		eng2 := sim.NewEngine()
		cfg := arctic.DefaultConfig()
		cfg.Adaptive = adaptive
		f2 := arctic.NewFatTree(eng2, nodes, cfg)
		// Instrument the deterministic run only — one engine, one artifact.
		var tbuf *trace.Buffer
		var reg *stats.Registry
		if instrument && !adaptive {
			if traceFile != "" {
				tbuf = trace.Attach(eng2, 1<<18)
			}
			if metricsFile != "" {
				reg = stats.NewRegistry()
				f2.RegisterMetrics(reg.Child("net"))
			}
		}
		for i := 0; i < nodes; i++ {
			f2.Attach(i, arctic.EndpointFunc(func(p *arctic.Packet) {}))
		}
		rng := rand.New(rand.NewSource(1))
		for k := 0; k < packets; k++ {
			src, dst := rng.Intn(nodes), rng.Intn(nodes)
			f2.Inject(&arctic.Packet{Src: src, Dst: dst, Priority: arctic.Low, Size: 96})
		}
		eng2.Run()
		st := f2.Stats()
		name := "deterministic"
		if adaptive {
			name = "adaptive"
		}
		fmt.Printf("uniform random (%s): %d packets (%d bytes) drained in %v — aggregate %.1f MB/s\n",
			name, st.Delivered, st.Bytes, eng2.Now(),
			float64(st.Bytes)/float64(eng2.Now())*1e3)
		if tbuf != nil {
			bench.WriteFile(traceFile, tbuf.WritePerfetto)
			fmt.Printf("trace: %s\n", traceFile)
		}
		if reg != nil {
			meta := &stats.RunMeta{Tool: "voyager-net", Nodes: nodes, SimTimeNs: int64(eng2.Now())}
			bench.WriteFile(metricsFile, func(w io.Writer) error { return reg.WriteJSON(w, eng2.Now(), meta) })
			fmt.Printf("metrics: %s\n", metricsFile)
		}
	}
}
