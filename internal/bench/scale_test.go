package bench

import (
	"bytes"
	"strings"
	"testing"

	"startvoyager/internal/node"
)

func TestParseNodeList(t *testing.T) {
	good := []struct {
		in   string
		want []int
	}{
		{"16", []int{16}},
		{"16,64,256", []int{16, 64, 256}},
		{" 2 , 1024 ", []int{2, 1024}},
	}
	for _, c := range good {
		got, err := ParseNodeList(c.in)
		if err != nil {
			t.Errorf("ParseNodeList(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("ParseNodeList(%q)=%v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ParseNodeList(%q)=%v, want %v", c.in, got, c.want)
			}
		}
	}
	// Errors must name the offending element.
	bad := []struct{ in, mention string }{
		{"16,abc,64", `"abc"`},
		{"16,,64", "empty"},
		{"0", "0"},
		{"1", "1"},
		{"4096", "4096"},
		{"64,999999", "999999"},
	}
	for _, c := range bad {
		_, err := ParseNodeList(c.in)
		if err == nil {
			t.Errorf("ParseNodeList(%q): no error", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.mention) {
			t.Errorf("ParseNodeList(%q) error %q does not name %q", c.in, err, c.mention)
		}
	}
	if _, err := ParseNodeList("2048"); err != nil {
		t.Errorf("ParseNodeList at MaxNodes=%d: %v", node.MaxNodes, err)
	}
}

// TestScaleDeterministic: every simulated-time field of the sweep is a pure
// function of its inputs — two runs agree exactly, and the deterministic
// tables render byte-identically.
func TestScaleDeterministic(t *testing.T) {
	opts := ScaleOpts{NodeCounts: []int{8, 16}, SamplesortMaxNodes: 16, SamplesortKeys: 16, HotspotPackets: 4}
	a := RunScale(opts)
	b := RunScale(opts)
	for i := range a {
		if a[i].AllreduceNs != b[i].AllreduceNs {
			t.Errorf("nodes=%d: allreduce %d vs %d ns", a[i].Nodes, a[i].AllreduceNs, b[i].AllreduceNs)
		}
		if a[i].Events == 0 || a[i].Events != b[i].Events {
			t.Errorf("nodes=%d: allreduce events %d vs %d", a[i].Nodes, a[i].Events, b[i].Events)
		}
		if a[i].SamplesortNs != b[i].SamplesortNs {
			t.Errorf("nodes=%d: samplesort %d vs %d ns", a[i].Nodes, a[i].SamplesortNs, b[i].SamplesortNs)
		}
		if len(a[i].HotspotStalls) != len(b[i].HotspotStalls) {
			t.Fatalf("nodes=%d: stall row counts differ", a[i].Nodes)
		}
		for j := range a[i].HotspotStalls {
			if a[i].HotspotStalls[j] != b[i].HotspotStalls[j] {
				t.Errorf("nodes=%d: stall row %d differs: %+v vs %+v",
					a[i].Nodes, j, a[i].HotspotStalls[j], b[i].HotspotStalls[j])
			}
		}
		if a[i].SamplesortNs == 0 {
			t.Errorf("nodes=%d: samplesort skipped below SamplesortMaxNodes", a[i].Nodes)
		}
	}
	if ScaleTable(a).String() != ScaleTable(b).String() {
		t.Error("deterministic scale table differs between identical runs")
	}
	if SaturationTable(a[1]).String() != SaturationTable(b[1]).String() {
		t.Error("saturation table differs between identical runs")
	}
}

// TestScaleSkipsSamplesortAboveCap: node counts past SamplesortMaxNodes
// record 0 and the table says "skipped".
func TestScaleSkipsSamplesortAboveCap(t *testing.T) {
	rs := RunScale(ScaleOpts{NodeCounts: []int{16}, SamplesortMaxNodes: 8, SamplesortKeys: 16, HotspotPackets: 2})
	if rs[0].SamplesortNs != 0 {
		t.Errorf("samplesort ran past the cap: %d ns", rs[0].SamplesortNs)
	}
	if !strings.Contains(ScaleTable(rs).String(), "skipped") {
		t.Error("table does not mark the skipped samplesort cell")
	}
}

// TestWriteDiffScale: the JSON round-trips, an unchanged footprint passes
// the gate, a >10% bytes/node growth fails it (naming the node count), a
// >10% shrink fails it until committed (naming make bench-scale-baseline), any
// difference in a deterministic simulated column fails it (naming the
// column), and a missing node count fails it.
func TestWriteDiffScale(t *testing.T) {
	results := []ScaleResult{
		{Nodes: 64, Levels: 3, Links: 512, BytesPerNode: 100_000, HeapBytes: 6_400_000,
			Events: 120_000, AllreduceNs: 25_000, SamplesortNs: 300_000,
			HotspotStalls: []LevelStallsJSON{{Level: "inject", Links: 64, Stalls: 10, StalledNs: 1000}}},
		{Nodes: 256, Levels: 4, BytesPerNode: 150_000, AllreduceNs: 37_000},
	}
	var buf bytes.Buffer
	if err := WriteScale(&buf, results); err != nil {
		t.Fatal(err)
	}
	baseline := buf.Bytes()
	if !strings.Contains(buf.String(), ScaleSchema) {
		t.Fatalf("document lacks schema %q", ScaleSchema)
	}

	var out bytes.Buffer
	if !DiffScale(baseline, results, &out) {
		t.Errorf("identical results failed the gate:\n%s", out.String())
	}

	grown := append([]ScaleResult(nil), results...)
	grown[0].BytesPerNode = 115_000 // +15%
	out.Reset()
	if DiffScale(baseline, grown, &out) {
		t.Error("15% bytes/node growth passed the gate")
	}
	if !strings.Contains(out.String(), "REGRESSED") || !strings.Contains(out.String(), "64") {
		t.Errorf("regression report does not name the offender:\n%s", out.String())
	}

	within := append([]ScaleResult(nil), results...)
	within[0].BytesPerNode = 109_000 // +9%: inside the gate
	out.Reset()
	if !DiffScale(baseline, within, &out) {
		t.Errorf("9%% growth tripped the 10%% gate:\n%s", out.String())
	}

	shrunk := append([]ScaleResult(nil), results...)
	shrunk[0].BytesPerNode = 85_000 // -15%: a gain left uncommitted
	out.Reset()
	if DiffScale(baseline, shrunk, &out) {
		t.Error("15% bytes/node shrink passed the gate uncommitted")
	}
	if !strings.Contains(out.String(), "SHRANK") || !strings.Contains(out.String(), "make bench-scale-baseline") {
		t.Errorf("shrink report does not name the refresh target:\n%s", out.String())
	}

	shrunkWithin := append([]ScaleResult(nil), results...)
	shrunkWithin[0].BytesPerNode = 91_000 // -9%: inside the gate
	out.Reset()
	if !DiffScale(baseline, shrunkWithin, &out) {
		t.Errorf("9%% shrink tripped the 10%% gate:\n%s", out.String())
	}

	for name, mutate := range map[string]func(r *ScaleResult){
		"allreduce_ns":  func(r *ScaleResult) { r.AllreduceNs++ },
		"events":        func(r *ScaleResult) { r.Events++ },
		"levels":        func(r *ScaleResult) { r.Levels++ },
		"samplesort_ns": func(r *ScaleResult) { r.SamplesortNs-- },
		"hotspot_level_stalls": func(r *ScaleResult) {
			r.HotspotStalls = []LevelStallsJSON{{Level: "inject", Links: 64, Stalls: 10, StalledNs: 1001}}
		},
	} {
		off := append([]ScaleResult(nil), results...)
		mutate(&off[0])
		out.Reset()
		if DiffScale(baseline, off, &out) {
			t.Errorf("%s off by one passed the gate:\n%s", name, out.String())
		}
		if !strings.Contains(out.String(), "CHANGED "+name) {
			t.Errorf("%s change not named:\n%s", name, out.String())
		}
	}

	out.Reset()
	if DiffScale(baseline, results[:1], &out) {
		t.Error("missing node count passed the gate")
	}
	if !strings.Contains(out.String(), "MISSING") {
		t.Errorf("missing node count not reported:\n%s", out.String())
	}

	if DiffScale([]byte("not json"), results, &out) {
		t.Error("garbage baseline passed the gate")
	}
}

// TestScaleFootprintMeasures: the footprint probe reports plausible values
// on a small machine — positive heap, per-node share, and fat-tree shape.
func TestScaleFootprintMeasures(t *testing.T) {
	heap, levels, links := measureFootprint(16)
	if heap <= 0 {
		t.Fatalf("heap delta %d", heap)
	}
	if levels != 2 || links != 2*16+2*1*4*4 {
		t.Errorf("16-node tree shape: levels=%d links=%d", levels, links)
	}
	// The lazy-state work pinned small machines far below 1 MB/node; a
	// generous ceiling still catches an accidental return to dense
	// allocation (a 16 MB DRAM alone would blow this 16x).
	if perNode := heap / 16; perNode > 1<<20 {
		t.Errorf("footprint %d bytes/node exceeds 1 MB — lazy allocation broken?", perNode)
	}
}

// TestFootprintFlatInNodes: per-node memory does not grow with the machine.
// A node's share of a 1024-node machine stays within 1.25x of its share of a
// 64-node one: the translation table is one image per machine, tag rings
// exist only in traced runs, and R-Basic keeps only the peers it talked to,
// so nothing a node holds is sized by the node count.
func TestFootprintFlatInNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1024-node machine")
	}
	small, _, _ := measureFootprint(64)
	large, _, _ := measureFootprint(1024)
	perSmall, perLarge := small/64, large/1024
	if float64(perLarge) > 1.25*float64(perSmall) {
		t.Errorf("bytes/node %d at 1024 nodes vs %d at 64 nodes: %.2fx, want at most 1.25x",
			perLarge, perSmall, float64(perLarge)/float64(perSmall))
	}
}

// TestFootprintBudget: a default 256-node machine holds at most 20 KB of live
// heap per node, about 18.5 KB with sparse indexes over the cache's sets and
// the memories' pages and CTRL records only for the queues in use. The
// budget leaves room for noise, not for a table sized by the hardware: the
// cache's dense 2-byte set index alone would break it.
func TestFootprintBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 256-node machine")
	}
	const budget = 20 << 10
	heap, _, _ := measureFootprint(256)
	if perNode := heap / 256; perNode > budget {
		t.Errorf("a 256-node machine holds %d bytes/node, over the %d-byte budget", perNode, budget)
	}
}
