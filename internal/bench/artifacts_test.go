package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"startvoyager/internal/cluster"
	"startvoyager/internal/fault"
	"startvoyager/internal/prof"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
	"startvoyager/internal/trace"
)

// TestArtifactsGoldens runs the shared spec and driver in the `make prof` /
// `make series` configuration and byte-compares every export with the
// goldens committed at the repo root. The folded and pprof goldens are
// rendered from the run's profile document read back from its JSON, as
// voyager-prof -folded and -pprof render them.
func TestArtifactsGoldens(t *testing.T) {
	dir := t.TempDir()
	art := &Artifacts{
		Series: filepath.Join(dir, "SERIES_sample.json"), SeriesWindow: 20 * sim.Microsecond,
		Prof:     filepath.Join(dir, "PROF_sample.json"),
		TraceCap: 1 << 18,
	}
	plan, err := fault.ParsePlan("seed=7,drop=0.05")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.DefaultConfig(4)
	cfg.Faults = plan
	r := art.Start(cfg)
	delivery := AllToOne{Mech: "reliable", Count: 50, Size: 64}.Spawn(r.M)
	r.M.Run()
	if delivery.Received != 150 || delivery.Failed != 0 {
		t.Fatalf("delivered %d of 150, %d sends failed", delivery.Received, delivery.Failed)
	}
	meta := stats.RunMeta{Tool: "voyager-run", Mechanism: "reliable", Seed: 7, FaultPlan: "seed=7,drop=0.05"}
	if err := art.Write(r, meta); err != nil {
		t.Fatal(err)
	}
	doc, err := prof.ReadDocFile(art.Prof)
	if err != nil {
		t.Fatal(err)
	}
	WriteFile(filepath.Join(dir, "PROF_sample.folded"), doc.WriteFolded)
	WriteFile(filepath.Join(dir, "PROF_sample.pb"), doc.WritePprof)
	for _, name := range []string{"SERIES_sample.json", "PROF_sample.json", "PROF_sample.folded", "PROF_sample.pb"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the committed golden", name)
		}
	}
}

// TestArtifactsPath: the critical-path exports are reports of the run's
// own trace ring. -path writes AnalyzePaths of the ring under the run's
// RunMeta, -waterfall n ends the run's output with the waterfall of the n
// slowest chains, and the metrics export carries path/, covering every
// chain, exactly when one of the two was asked for. Either flag alone is a
// per-run export, so the sweeps refuse it.
func TestArtifactsPath(t *testing.T) {
	plan, err := fault.ParsePlan("seed=7,drop=0.05")
	if err != nil {
		t.Fatal(err)
	}
	meta := stats.RunMeta{Tool: "voyager-run", Mechanism: "reliable", Seed: 7, FaultPlan: "seed=7,drop=0.05"}
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	for _, tc := range []struct {
		name string
		art  Artifacts
		path bool
	}{
		{"metrics", Artifacts{Metrics: metrics}, false},
		{"trace", Artifacts{Trace: filepath.Join(dir, "t.json"), Metrics: metrics}, false},
		{"path", Artifacts{Path: filepath.Join(dir, "p.json"), Metrics: metrics}, true},
		{"waterfall", Artifacts{Waterfall: 3, Metrics: metrics}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			art := tc.art
			art.TraceCap = 1 << 18
			cfg := cluster.DefaultConfig(2)
			cfg.Faults = plan
			r := art.Start(cfg)
			delivery := AllToOne{Mech: "reliable", Count: 8, Size: 32}.Spawn(r.M)
			r.M.Run()
			if delivery.Received != 8 || delivery.Failed != 0 {
				t.Fatalf("delivered %d of 8, %d sends failed", delivery.Received, delivery.Failed)
			}
			out := captureStdout(t, func() {
				if err := art.Write(r, meta); err != nil {
					t.Fatal(err)
				}
			})

			var chains *trace.PathAnalysis
			if r.Trace != nil {
				chains = trace.AnalyzePaths(r.Trace.Events())
			}
			if art.Path != "" {
				want := meta
				want.Nodes, want.SimTimeNs = 2, int64(r.M.Eng.Now())
				var doc bytes.Buffer
				if err := chains.WriteJSON(&doc, &want); err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(art.Path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, doc.Bytes()) {
					t.Errorf("-path file differs from AnalyzePaths(events).WriteJSON of the run")
				}
			}
			if art.Waterfall > 0 {
				var wf strings.Builder
				if err := chains.Slowest(art.Waterfall).WriteWaterfall(&wf); err != nil {
					t.Fatal(err)
				}
				if !strings.HasSuffix(out, "\n"+wf.String()) {
					t.Errorf("-waterfall output does not end with the slowest chains' waterfall:\n%s", out)
				}
			}

			data, err := os.ReadFile(metrics)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct{ Metrics map[string]json.RawMessage }
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			var paths []string
			for p := range doc.Metrics {
				paths = append(paths, p)
			}
			if got := anyHasPrefix(paths, "path/"); got != tc.path {
				t.Errorf("path/ in the metrics export = %v, want %v", got, tc.path)
			}
			if tc.path {
				if n, _ := r.M.Metrics().ReadGauge("path/msgs"); n != int64(len(chains.Msgs)) || n <= 3 {
					t.Errorf("path/msgs = %d, want every one of the run's %d chains", n, len(chains.Msgs))
				}
				if !(&Artifacts{Path: art.Path, Waterfall: art.Waterfall}).Requested() {
					t.Errorf("Requested() is false for %s alone", tc.name)
				}
			}
		})
	}
}

// captureStdout returns what f prints on standard output.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	defer func() { os.Stdout = saved }()
	f()
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestSeriesWindowFlag: -series-window refuses, as a flag error naming the
// value, a width the sampler cannot split into its scrapes (3ns, 102ns) or
// that is not positive, where NewSampler used to panic on the first two once
// the machine was built; a width it can split is taken as given.
func TestSeriesWindowFlag(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		want sim.Time // 0: refused
	}{
		{"3ns", 0},
		{"102ns", 0},
		{"0s", 0},
		{"-4ns", 0},
		{"20us", 20 * sim.Microsecond},
		{"4ns", 4},
	} {
		var a Artifacts
		fs := flag.NewFlagSet("run", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		a.Register(fs)
		err := fs.Parse([]string{"-series-window", tc.arg})
		switch {
		case tc.want == 0 && err == nil:
			t.Errorf("-series-window %s accepted as %v", tc.arg, a.SeriesWindow)
		case tc.want == 0 && !strings.Contains(err.Error(), "-series-window") ||
			tc.want == 0 && !strings.Contains(err.Error(), tc.arg):
			t.Errorf("-series-window %s refused without naming the flag and value: %v", tc.arg, err)
		case tc.want != 0 && err != nil:
			t.Errorf("-series-window %s refused: %v", tc.arg, err)
		case tc.want != 0 && a.SeriesWindow != tc.want:
			t.Errorf("-series-window %s parsed as %v, want %v", tc.arg, a.SeriesWindow, tc.want)
		}
	}
}

// TestArtifactsTraceAttachRule: the ring, and with it the trace/ gauges in
// the metrics and series exports, is attached only for -trace, -dump,
// -path, -waterfall and -strict-trace.
func TestArtifactsTraceAttachRule(t *testing.T) {
	for _, tc := range []struct {
		name string
		art  Artifacts
		want bool
	}{
		{"metrics", Artifacts{Metrics: "m.json"}, false},
		{"series", Artifacts{Series: "s.json", SeriesWindow: 20 * sim.Microsecond}, false},
		{"prof", Artifacts{Prof: "p.json"}, false},
		{"trace", Artifacts{Trace: "t.json", Metrics: "m.json"}, true},
		{"dump", Artifacts{Dump: 5}, true},
		{"path", Artifacts{Path: "p.json"}, true},
		{"waterfall", Artifacts{Waterfall: 3}, true},
		{"strict-trace", Artifacts{StrictTrace: true}, true},
	} {
		r := tc.art.Start(cluster.DefaultConfig(CanonicalNodes))
		paths := r.M.Metrics().Paths()
		if !tc.want && anyHasPrefix(paths, "trace/") {
			t.Errorf("%s: registry has trace/ paths without the ring", tc.name)
		}
		for _, gauge := range []string{"trace/captured", "trace/dropped"} {
			if got := slices.Contains(paths, gauge); got != tc.want {
				t.Errorf("%s: %s registered = %v, want %v", tc.name, gauge, got, tc.want)
			}
		}
		if got := r.Trace != nil; got != tc.want {
			t.Errorf("%s: ring attached = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestAllToOneCheck: bad driver input is a named error before any machine
// is built, never a hang or a panic inside a proc. A mechanism without
// recovery under a plan that can lose packets is bad input too: its sink
// would wait forever for what the network dropped.
func TestAllToOneCheck(t *testing.T) {
	plan := func(s string) *fault.Plan {
		p, err := fault.ParsePlan(s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	lossyErr := func(mech string) string {
		return "-faults: the plan can lose packets and " + mech + " does not recover them (use -mech reliable)"
	}
	for _, tc := range []struct {
		d    AllToOne
		plan *fault.Plan
		want string
	}{
		{AllToOne{Mech: "basic"}, nil, ""},
		{AllToOne{Mech: "reliable", Count: 100, Size: 64}, nil, ""},
		{AllToOne{Mech: "bogus", Count: 1, Size: 1}, nil,
			`-mech: unknown mechanism "bogus" (want basic, express, tagon, dma, reliable)`},
		{AllToOne{Mech: "", Count: 1, Size: 1}, nil,
			`-mech: unknown mechanism "" (want basic, express, tagon, dma, reliable)`},
		{AllToOne{Mech: "basic", Count: -1, Size: 64}, nil, "-count: must be >= 0, got -1"},
		{AllToOne{Mech: "dma", Count: 1, Size: -1}, nil, "-size: must be >= 0, got -1"},
		{AllToOne{Mech: "basic", Count: 1}, plan("seed=7,drop=0.05"), lossyErr("basic")},
		{AllToOne{Mech: "tagon", Count: 1}, plan("corrupt.high=0.01"), lossyErr("tagon")},
		{AllToOne{Mech: "dma", Count: 1}, plan("death=1@1ms"), lossyErr("dma")},
		{AllToOne{Mech: "express", Count: 1}, plan("outage=1-0@20us:200us"), lossyErr("express")},
		{AllToOne{Mech: "reliable", Count: 1}, plan("seed=7,drop=0.05,corrupt=0.02,death=1@1ms"), ""},
		{AllToOne{Mech: "basic", Count: 1}, plan("seed=7,dup=0.05"), ""},
		{AllToOne{Mech: "basic", Count: 1}, plan("delay=0.2@2us"), ""},
	} {
		got := ""
		if err := tc.d.Check(tc.plan); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%+v under %v: Check() = %q, want %q", tc.d, tc.plan, got, tc.want)
		}
	}
}
