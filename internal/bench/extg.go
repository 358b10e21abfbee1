package bench

import (
	"fmt"

	"startvoyager/internal/blockxfer"
	"startvoyager/internal/cluster"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// ExtGNetworkScaling is the what-if ablation behind the paper's thesis:
// rerun the Figure-4 bandwidth experiment with faster network links. Only
// the hardware approach (3) can exploit a faster wire; approaches 1 and 2
// are pinned by processor occupancy — which is why mechanism/implementation
// choice, not raw link speed, dominates.
func ExtGNetworkScaling(size int) *stats.Table {
	t := &stats.Table{
		Title: fmt.Sprintf("Ext G — bandwidth (MB/s, %s transfers) vs link speed",
			stats.FormatBytes(size)),
		Columns: []string{"link", "approach-1", "approach-2", "approach-3"},
	}
	links := []struct {
		name string
		flit sim.Time // per-16B serialization
	}{
		{"160 MB/s (Arctic)", 100 * sim.Nanosecond},
		{"320 MB/s", 50 * sim.Nanosecond},
		{"640 MB/s", 25 * sim.Nanosecond},
	}
	for _, l := range links {
		hook := func(cfg *cluster.Config) { cfg.Net.FlitTime = l.flit }
		row := []string{l.name}
		for _, a := range []blockxfer.Approach{blockxfer.A1, blockxfer.A2, blockxfer.A3} {
			row = append(row, fmt.Sprintf("%.1f",
				blockxfer.MeasureBandwidth(a, size, hook)))
		}
		t.AddRow(row...)
	}
	return t
}

// ExtGTopology compares the fat tree against an idealized fixed-latency
// fabric on the same experiment — how much of the latency budget the
// network structure actually owns.
func ExtGTopology(size int) *stats.Table {
	t := &stats.Table{
		Title: fmt.Sprintf("Ext G — approach-3 bandwidth (%s): fat tree vs ideal fabric",
			stats.FormatBytes(size)),
		Columns: []string{"fabric", "bandwidth (MB/s)"},
	}
	t.AddRow("Arctic fat tree", fmt.Sprintf("%.1f",
		blockxfer.MeasureBandwidth(blockxfer.A3, size, nil)))
	t.AddRow("ideal fixed-latency", fmt.Sprintf("%.1f",
		blockxfer.MeasureBandwidth(blockxfer.A3, size,
			func(cfg *cluster.Config) { cfg.DirectNet = true })))
	return t
}

// ExtHFirmwareSpeed varies the sP's speed (handler costs) and reruns the
// bandwidth experiment: approach 2's firmware-managed transfer collapses as
// the sP slows while approach 3's hardware path barely notices — the
// paper's warning that "firmware engine occupancy ... can strongly color
// experimental results", quantified. (At the default speed A2's limiter is
// the command-queue hardware; a slower engine quickly becomes the
// bottleneck.)
func ExtHFirmwareSpeed(size int) *stats.Table {
	t := &stats.Table{
		Title: fmt.Sprintf("Ext H — bandwidth (MB/s, %s) vs firmware engine speed",
			stats.FormatBytes(size)),
		Columns: []string{"firmware", "approach-2", "approach-3"},
	}
	speeds := []struct {
		name  string
		scale int64 // dimensionless multiplier on default costs
	}{
		{"1x (default 604)", 1},
		{"2x slower", 2},
		{"4x slower", 4},
	}
	for _, s := range speeds {
		hook := func(cfg *cluster.Config) {
			c := &cfg.Node.Costs
			c.Dispatch *= sim.Time(s.scale)
			c.Handler *= sim.Time(s.scale)
			c.PerByte *= sim.Time(s.scale)
			c.CmdIssue *= sim.Time(s.scale)
		}
		t.AddRow(s.name,
			fmt.Sprintf("%.1f", blockxfer.MeasureBandwidth(blockxfer.A2, size, hook)),
			fmt.Sprintf("%.1f", blockxfer.MeasureBandwidth(blockxfer.A3, size, hook)))
	}
	return t
}
