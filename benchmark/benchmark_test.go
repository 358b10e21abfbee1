package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
)

// toy returns the workload on 16-node machines, or a 64-node bare fabric,
// with each run still long enough for the CPU profiler to sample.
func toy(w spec) spec {
	switch w.name {
	case "fabric-hotspot-1024":
		w.nodes, w.work = 64, 100
	case "mpi-256":
		w.nodes, w.work = 16, 4
	default:
		w.nodes, w.work = 16, 100
	}
	return w
}

// TestWorkloads runs every workload at toy size, untraced and traced, and
// checks that they pass their own checks, that tracing leaves every
// simulated output unchanged, that the per-layer set is complete with host
// shares summing to one, and that the seed changes the inputs.
func TestWorkloads(t *testing.T) {
	for _, w := range specs {
		w := toy(w)
		t.Run(w.name, func(t *testing.T) {
			rep, err := measure(w, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct || rep.failed != 0 {
				t.Fatalf("untraced run failed its checks: %v", rep.notes)
			}
			if err := rep.print(io.Discard); err != nil {
				t.Fatal(err)
			}

			layers, err := measureLayers(w, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			// measureLayers marks the report incorrect if any traced
			// repetition's outputs differ from the untraced run's.
			if !layers.correct {
				t.Fatalf("traced run differs from the untraced run or failed: %v", layers.notes)
			}
			if err := layers.print(io.Discard); err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, m := range layers.metrics {
				for _, b := range buckets {
					if m.name == shareName(b) {
						sum += m.value
					}
				}
			}
			if math.Abs(sum-1) > 0.01 {
				t.Errorf("host shares sum to %v", sum)
			}

			one, _, _, err := repetition(w, 1, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			two, _, _, err := repetition(w, 2, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if one.digest == two.digest {
				t.Error("seeds 1 and 2 gave the same simulated outputs")
			}
		})
	}
}

// TestUsage: bad invocations exit 2 without running anything.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "2"},
		{"-workload", "no-such-workload"},
		{"-seconds", "-1"},
		{"stray"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}

// TestBenchmarkJSON: BENCHMARK.json names exactly the workloads and metrics
// this program reports, with the same reasons and units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Why, Unit string }
	var doc struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json has %d workloads, program runs %d", len(doc.Workloads), len(specs))
	}
	for i := 0; i < len(doc.Workloads) && i < len(specs); i++ {
		if got, w := doc.Workloads[i], specs[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q (%s), program runs %q (%s)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	for _, c := range []struct {
		what string
		got  []named
		want []metric
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json %s has %d metrics, program reports %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("BENCHMARK.json %s[%d] = %s (%s), program reports %s (%s)",
					c.what, i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
}

// TestLayerTable: every package under internal/ maps to exactly one known
// layer, and the table names no package that is gone — so no CPU sample can
// land in an unnamed bucket.
func TestLayerTable(t *testing.T) {
	root := filepath.Join("..", "internal")
	var pkgs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		if strings.Contains(path, string(filepath.Separator)+"testdata"+string(filepath.Separator)) {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if len(pkgs) == 0 || pkgs[len(pkgs)-1] != rel {
			pkgs = append(pkgs, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, b := range buckets {
		known[b] = true
	}
	seen := map[string]bool{}
	for _, p := range pkgs {
		seen[p] = true
		layer, ok := layerOf[p]
		if !ok {
			t.Errorf("internal/%s has no layer in layerOf", p)
		} else if !known[layer] {
			t.Errorf("internal/%s maps to unknown layer %q", p, layer)
		}
	}
	var stale []string
	for p := range layerOf {
		if !seen[p] {
			stale = append(stale, p)
		}
	}
	sort.Strings(stale)
	for _, p := range stale {
		t.Errorf("layerOf names internal/%s, which holds no package", p)
	}
}

// TestBillTo pins how stacks are charged: the first repo frame from the leaf
// decides, and stacks without one are runtime scheduling or collection.
func TestBillTo(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "startvoyager/internal/niu/ctrl.(*Ctrl).launch", "startvoyager/internal/sim.(*Engine).Step"}, "niu"},
		{[]string{"startvoyager/internal/sim.(*Queue[go.shape.int]).Pop", "startvoyager/internal/core.(*API).busy.func1"}, "engine"},
		{[]string{"startvoyager/internal/sim.(*Queue[go.shape.struct { K startvoyager/internal/bus.Kind }]).Push"}, "engine"},
		{[]string{"runtime.chansend1", "startvoyager/internal/sim.(*Proc).run"}, "engine"},
		{[]string{"main.(*counter).FramePush", "startvoyager/internal/sim.(*Engine).ProfPush"}, "harness"},
		{[]string{"runtime/pprof.profileWriter", "runtime.goexit"}, "harness"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime._GC"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.park_m", "runtime.mcall"}, "runtime.sched"},
	} {
		got, err := billTo(c.frames)
		if err != nil || got != c.want {
			t.Errorf("billTo(%v) = %q, %v; want %q", c.frames, got, err, c.want)
		}
	}
	if _, err := billTo([]string{"startvoyager/internal/newpkg.F"}); err == nil {
		t.Error("an unmapped repo package was billed without error")
	}
}

// TestParseProfile decodes an allocation profile captured during the test:
// its stacks must resolve and bill like the CPU profiles of a traced run,
// and corrupted copies must be rejected or decoded, never panic.
func TestParseProfile(t *testing.T) {
	if _, _, _, err := repetition(toy(specs[0]), 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	idx, err := p.valueIndex("alloc_space/bytes")
	if err != nil {
		t.Fatal(err)
	}
	billed := map[string]int64{}
	for _, s := range p.samples {
		b, err := billTo(s.frames)
		if err != nil {
			t.Fatal(err)
		}
		billed[b] += s.values[idx]
	}
	if billed["assembly"] == 0 {
		t.Errorf("no allocation billed to machine construction: %v", billed)
	}

	zr, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(raw); cut += 1 + len(raw)/97 {
		parseProfile(raw[:cut])
		flipped := append([]byte(nil), raw...)
		flipped[cut] ^= 0x5a
		parseProfile(flipped)
	}
	if _, err := parseProfile([]byte{0x1f, 0x8b, 0}); err == nil {
		t.Error("a truncated gzip stream was accepted")
	}
}
