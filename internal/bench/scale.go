package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"startvoyager/internal/arctic"
	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/mpi"
	"startvoyager/internal/node"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
	"startvoyager/internal/workload"
)

// The scale benchmark pins the cost of growing the machine. The paper's
// whole premise is that Voyager-class studies need *large* configurations,
// so this file measures what large costs here: per-node heap footprint at
// 64/256/1024 nodes (host-side, gated against BENCH_scale.json in CI), plus
// the depth-dependent simulated behaviour that only exists on deep trees —
// MPI collectives at scale and credit-backpressure propagating level by
// level under hotspot traffic.
// Every simulated-time number is deterministic: same inputs, same bytes, so
// CI compares those columns exactly.

// ScaleSchema identifies the BENCH_scale.json document format.
const ScaleSchema = "voyager-scale/v1"

// DefaultScaleNodes is the node-count axis `make bench-scale` sweeps.
var DefaultScaleNodes = []int{64, 256, 1024}

// ParseNodeList parses a comma-separated node-count list such as
// "16,64,256". Errors name the offending element.
func ParseNodeList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		p := strings.TrimSpace(part)
		if p == "" {
			return nil, fmt.Errorf("node list %q: empty element", s)
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("node list %q: %q is not an integer", s, p)
		}
		if v < 2 || v > node.MaxNodes {
			return nil, fmt.Errorf("node list %q: %d is outside the supported range 2..%d", s, v, node.MaxNodes)
		}
		out = append(out, v)
	}
	return out, nil
}

// ScaleOpts configures the scale sweep.
type ScaleOpts struct {
	// NodeCounts is the machine-size axis (default DefaultScaleNodes).
	NodeCounts []int
	// SamplesortMaxNodes bounds the samplesort workload: its Alltoall is a
	// ring shift of O(N^2) messages, so the largest configurations record 0
	// (skipped) instead of dominating CI wall-clock. Default 256.
	SamplesortMaxNodes int
	// SamplesortKeys is the per-rank key count for samplesort (default 64).
	SamplesortKeys int
	// HotspotPackets is the per-source packet count for the fabric
	// saturation run (default 8).
	HotspotPackets int
}

func (o *ScaleOpts) fill() {
	if len(o.NodeCounts) == 0 {
		o.NodeCounts = DefaultScaleNodes
	}
	if o.SamplesortMaxNodes == 0 {
		o.SamplesortMaxNodes = 256
	}
	if o.SamplesortKeys == 0 {
		o.SamplesortKeys = 64
	}
	if o.HotspotPackets == 0 {
		o.HotspotPackets = 8
	}
}

// LevelStallsJSON is one tree level's aggregated credit-stall telemetry as
// recorded in BENCH_scale.json (mirrors arctic.LevelStalls).
type LevelStallsJSON struct {
	Level     string `json:"level"`
	Links     int    `json:"links"`
	Stalls    uint64 `json:"stalls"`
	StalledNs uint64 `json:"stalled_ns"`
}

// ScaleResult is one node count's row of the scale sweep. Levels, Links,
// Events, AllreduceNs, SamplesortNs and HotspotStalls are fully
// deterministic; BytesPerNode and HeapBytes are host-side measurements
// (BytesPerNode is gated in CI, with a tolerance).
type ScaleResult struct {
	Nodes        int   `json:"nodes"`
	Levels       int   `json:"levels"` // fat-tree switch levels
	Links        int   `json:"links"`  // directed links incl. inject/eject
	BytesPerNode int64 `json:"bytes_per_node"`
	HeapBytes    int64 `json:"heap_bytes"` // live heap of one idle machine
	Events       int64 `json:"events"`     // events the allreduce run executed

	AllreduceNs   int64             `json:"allreduce_ns"`
	SamplesortNs  int64             `json:"samplesort_ns"` // 0 = skipped (see SamplesortMaxNodes)
	HotspotStalls []LevelStallsJSON `json:"hotspot_level_stalls"`
}

// RunScale executes the sweep sequentially — footprint measurement reads
// global heap statistics, so cells must not overlap.
func RunScale(o ScaleOpts) []ScaleResult {
	o.fill()
	out := make([]ScaleResult, 0, len(o.NodeCounts))
	for _, n := range o.NodeCounts {
		out = append(out, scaleOne(n, o))
	}
	return out
}

func scaleOne(n int, o ScaleOpts) ScaleResult {
	r := ScaleResult{Nodes: n}
	r.HeapBytes, r.Levels, r.Links = measureFootprint(n)
	r.BytesPerNode = r.HeapBytes / int64(n)

	lat, events := allreduceRun(n)
	r.AllreduceNs = int64(lat)
	r.Events = int64(events)
	if n <= o.SamplesortMaxNodes {
		r.SamplesortNs = int64(samplesortTime(n, o.SamplesortKeys))
	}
	for _, ls := range hotspotSaturation(n, o.HotspotPackets) {
		r.HotspotStalls = append(r.HotspotStalls, LevelStallsJSON(ls))
	}
	return r
}

// measureFootprint builds one full machine (firmware services and all) and
// reports the live heap it retains once construction garbage is collected.
// Heap deltas are global state, so callers must not run concurrent
// measurements.
func measureFootprint(n int) (heapBytes int64, levels, links int) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	m := core.NewMachineConfig(cluster.DefaultConfig(n))
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	heapBytes = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if heapBytes < 0 {
		heapBytes = 0
	}
	if ft, ok := m.Fabric.(*arctic.FatTree); ok {
		levels, links = ft.Levels(), ft.NumLinks()
	}
	m.Close()
	return heapBytes, levels, links
}

// allreduceRun runs one 8-byte MPI allreduce across all n ranks and returns
// the simulated completion time of the last rank plus the number of events
// the engine executed to run it.
func allreduceRun(n int) (sim.Time, uint64) {
	m := core.NewMachine(n)
	var last sim.Time
	for r := 0; r < n; r++ {
		c := mpi.World(m, r)
		m.Go(r, "rank", func(p *sim.Proc, _ *core.API) {
			c.Allreduce(p, mpi.Sum, []float64{float64(c.Rank())})
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	m.Run()
	m.Close()
	return last, m.Eng.Executed()
}

// samplesortTime runs workload.Samplesort, the application
// examples/samplesort runs, at n ranks with keysPerRank keys each, and
// returns the simulated time of the last rank's completion. Keys come from
// a per-rank SplitMix64 stream, so the run is a pure function of (n,
// keysPerRank).
func samplesortTime(n, keysPerRank int) sim.Time {
	m := core.NewMachine(n)
	var last sim.Time
	for r := 0; r < n; r++ {
		r := r
		c := mpi.World(m, r)
		m.Go(r, "sort", func(p *sim.Proc, a *core.API) {
			workload.Samplesort(p, a, c, rankKeys(r, keysPerRank))
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	m.Run()
	m.Close()
	return last
}

// rankKeys derives keysPerRank pseudo-random keys for rank r from a
// SplitMix64 stream seeded by the rank — deterministic and rank-decorrelated.
func rankKeys(r, keysPerRank int) []uint32 {
	rng := sim.NewSplitMix64(uint64(r)*0x9E3779B97F4A7C15 + 0x1234567)
	keys := make([]uint32, keysPerRank)
	for i := range keys {
		keys[i] = uint32(rng.Intn(1_000_000))
	}
	return keys
}

// hotspotSaturation drives an all-to-one hotspot on a bare fat tree (every
// other node sends perSource 96-byte packets to node 0 at t=0) and returns
// the per-level credit-stall aggregation once the fabric drains. On a deep
// tree the congestion gradient is visible level by level: the down links
// converging on node 0 fill first, then backpressure climbs through the
// ascent levels toward the injectors — the tree-saturation behaviour the
// paper warns the Hold policy produces.
func hotspotSaturation(n, perSource int) []arctic.LevelStalls {
	eng := sim.NewEngine()
	f := bareTree(eng, n, arctic.DefaultConfig(), func(*arctic.Packet) {})
	for src := 1; src < n; src++ {
		src := src
		for k := 0; k < perSource; k++ {
			eng.Schedule(0, func() {
				f.Inject(&arctic.Packet{Src: src, Dst: 0, Priority: arctic.Low, Size: 96})
			})
		}
	}
	eng.Run()
	return f.StallsByLevel()
}

// ScaleTable renders the deterministic simulated-time columns of the sweep;
// identical inputs produce identical bytes on any host.
func ScaleTable(results []ScaleResult) *stats.Table {
	t := &stats.Table{
		Title: "scale sweep — simulated behaviour by machine size (deterministic)",
		Columns: []string{"nodes", "levels", "links", "allreduce (us)",
			"samplesort (us)", "hotspot stalls", "stalled (us)"},
	}
	for _, r := range results {
		ss := "skipped"
		if r.SamplesortNs > 0 {
			ss = fmtUs(sim.Time(r.SamplesortNs))
		}
		var stalls, stalledNs uint64
		for _, ls := range r.HotspotStalls {
			stalls += ls.Stalls
			stalledNs += ls.StalledNs
		}
		t.AddRow(fmt.Sprint(r.Nodes), fmt.Sprint(r.Levels), fmt.Sprint(r.Links),
			fmtUs(sim.Time(r.AllreduceNs)), ss,
			fmt.Sprint(stalls), fmtUs(sim.Time(stalledNs)))
	}
	return t
}

// ScaleFootprintTable renders the host-side columns — per-node heap bytes
// and the allreduce run's event count. DiffScale gates bytes/node with a
// tolerance and the event count exactly.
func ScaleFootprintTable(results []ScaleResult) *stats.Table {
	t := &stats.Table{
		Title:   "scale sweep — host-side footprint and work (bytes/node and events gated in CI)",
		Columns: []string{"nodes", "bytes/node", "total heap (MB)", "allreduce events"},
	}
	for _, r := range results {
		t.AddRow(fmt.Sprint(r.Nodes), fmt.Sprint(r.BytesPerNode),
			fmt.Sprintf("%.1f", float64(r.HeapBytes)/(1<<20)),
			fmt.Sprint(r.Events))
	}
	return t
}

// SaturationTable renders one result's per-level hotspot stall gradient in
// hop order (inject, ascent levels, descent levels, eject).
func SaturationTable(r ScaleResult) *stats.Table {
	t := &stats.Table{
		Title: fmt.Sprintf("hotspot saturation by tree level — %d nodes, all-to-one (deterministic)",
			r.Nodes),
		Columns: []string{"level", "links", "stalls", "stalled (us)"},
	}
	for _, ls := range r.HotspotStalls {
		t.AddRow(ls.Level, fmt.Sprint(ls.Links), fmt.Sprint(ls.Stalls),
			fmtUs(sim.Time(ls.StalledNs)))
	}
	return t
}

// scaleDoc is the on-disk shape of BENCH_scale.json.
type scaleDoc struct {
	Schema  string        `json:"schema"`
	Results []ScaleResult `json:"results"`
}

// WriteScale renders results as the BENCH_scale.json document.
func WriteScale(w io.Writer, results []ScaleResult) error {
	out, err := json.MarshalIndent(scaleDoc{Schema: ScaleSchema, Results: results}, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}

// DiffScale compares fresh results against the committed baseline document
// and reports every node count to w. Returns false — the CI failure signal —
// when a node count is missing, when its bytes/node is more than 10% above
// or below the baseline, or when any deterministic column (levels, links,
// events, allreduce_ns, samplesort_ns, hotspot_level_stalls) differs from
// the baseline at all. A footprint gain fails too until it is committed
// with make bench-scale-baseline: a baseline left above the real footprint
// would let a later regression of up to the uncommitted gain pass. The
// wall-clock column is host noise and never gated.
func DiffScale(baseline []byte, results []ScaleResult, w io.Writer) bool {
	var base scaleDoc
	if err := json.Unmarshal(baseline, &base); err != nil {
		fmt.Fprintf(w, "scale-diff: bad baseline: %v\n", err)
		return false
	}
	byNodes := make(map[int]ScaleResult, len(results))
	for _, r := range results {
		byNodes[r.Nodes] = r
	}
	ok := true
	for _, b := range base.Results {
		now, found := byNodes[b.Nodes]
		if !found {
			fmt.Fprintf(w, "scale-diff: %5d nodes MISSING (baseline %d bytes/node)\n", b.Nodes, b.BytesPerNode)
			ok = false
			continue
		}
		pct := 0.0
		if b.BytesPerNode > 0 {
			pct = 100 * float64(now.BytesPerNode-b.BytesPerNode) / float64(b.BytesPerNode)
		}
		var bad []string
		if now.BytesPerNode > b.BytesPerNode+b.BytesPerNode/10 {
			bad = append(bad, "REGRESSED")
		}
		if now.BytesPerNode < b.BytesPerNode-b.BytesPerNode/10 {
			bad = append(bad, "SHRANK (commit the gain with make bench-scale-baseline)")
		}
		exact := func(col string, was, is int64) {
			if was != is {
				bad = append(bad, fmt.Sprintf("CHANGED %s %d -> %d", col, was, is))
			}
		}
		exact("levels", int64(b.Levels), int64(now.Levels))
		exact("links", int64(b.Links), int64(now.Links))
		exact("events", b.Events, now.Events)
		exact("allreduce_ns", b.AllreduceNs, now.AllreduceNs)
		exact("samplesort_ns", b.SamplesortNs, now.SamplesortNs)
		if !slices.Equal(b.HotspotStalls, now.HotspotStalls) {
			bad = append(bad, fmt.Sprintf("CHANGED hotspot_level_stalls %v -> %v", b.HotspotStalls, now.HotspotStalls))
		}
		verdict := "ok"
		if len(bad) > 0 {
			verdict, ok = strings.Join(bad, "; "), false
		}
		fmt.Fprintf(w, "scale-diff: %5d nodes %8d -> %8d bytes/node (%+.1f%%) (allreduce %dns -> %dns) %s\n",
			b.Nodes, b.BytesPerNode, now.BytesPerNode, pct, b.AllreduceNs, now.AllreduceNs, verdict)
	}
	if !ok {
		fmt.Fprintln(w, "scale-diff: FAIL — a node count is missing, its bytes/node moved >10% either way, or a deterministic column changed (refresh BENCH_scale.json via make bench-scale-baseline if intentional)")
	}
	return ok
}
