package bench

import (
	"fmt"
	"math/rand"

	"startvoyager/internal/arctic"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// Ext M: the Arctic fat tree alone, the lowest of the machine's four layers.
// One packet from node 0 gives the unloaded latency at three distances, and
// a burst between uniform random endpoints, all injected at t = 0, gives the
// drain time and aggregate bandwidth under deterministic and under adaptive
// up-routing.
const (
	extMPacketBytes = 96
	extMPackets     = 2000
)

// ExtMFabric characterizes a bare fat tree of each size in nodeCounts. The
// latency table holds the hops and unloaded latency from node 0 to nodes 1,
// n/4 and n-1; the load table the delivered packets, drain time and
// aggregate MB/s of the uniform random burst under each routing rule.
func ExtMFabric(nodeCounts []int) (latency, load *stats.Table) {
	latency = &stats.Table{
		Title:   fmt.Sprintf("Ext M — Arctic fat tree: unloaded latency of one %dB packet from node 0", extMPacketBytes),
		Columns: []string{"nodes", "dst", "hops", "latency (us)"},
	}
	load = &stats.Table{
		Title: fmt.Sprintf("Ext M — Arctic fat tree: %d %dB packets between uniform random endpoints, all injected at t=0",
			extMPackets, extMPacketBytes),
		Columns: []string{"nodes", "routing", "delivered", "bytes", "drain (us)", "aggregate MB/s"},
	}
	for _, n := range nodeCounts {
		eng := sim.NewEngine()
		var lat sim.Time
		f := bareTree(eng, n, arctic.DefaultConfig(), func(p *arctic.Packet) { lat = eng.Now() - p.InjectedAt() })
		last := 0
		for _, dst := range []int{1, n / 4, n - 1} {
			if dst <= last { // n/4 is 0 or 1 below eight nodes, n-1 is 1 at two
				continue
			}
			last = dst
			eng.Schedule(0, func() {
				f.Inject(&arctic.Packet{Src: 0, Dst: dst, Priority: arctic.Low, Size: extMPacketBytes})
			})
			eng.Run()
			latency.AddRow(fmt.Sprint(n), fmt.Sprint(dst), fmt.Sprint(f.HopCount(0, dst)), fmtUs(lat))
		}

		for _, routing := range []string{"deterministic", "adaptive"} {
			st, drain := uniformBurst(n, routing == "adaptive")
			load.AddRow(fmt.Sprint(n), routing, fmt.Sprint(st.Delivered), fmt.Sprint(st.Bytes), fmtUs(drain),
				fmt.Sprintf("%.1f", float64(st.Bytes)/float64(drain)*1e3))
		}
	}
	return latency, load
}

// uniformBurst injects extMPackets packets between uniform random endpoints
// of a bare n-node tree at t = 0 and runs the fabric until it drains.
func uniformBurst(n int, adaptive bool) (arctic.Stats, sim.Time) {
	cfg := arctic.DefaultConfig()
	cfg.Adaptive = adaptive
	eng := sim.NewEngine()
	f := bareTree(eng, n, cfg, func(*arctic.Packet) {})
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < extMPackets; k++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		f.Inject(&arctic.Packet{Src: src, Dst: dst, Priority: arctic.Low, Size: extMPacketBytes})
	}
	eng.Run()
	return f.Stats(), eng.Now()
}

// bareTree builds an n-endpoint fat tree on eng, with no machine around it,
// and attaches deliver at every endpoint.
func bareTree(eng *sim.Engine, n int, cfg arctic.Config, deliver arctic.EndpointFunc) *arctic.FatTree {
	f := arctic.NewFatTree(eng, n, cfg)
	for i := 0; i < n; i++ {
		f.Attach(i, deliver)
	}
	return f
}
