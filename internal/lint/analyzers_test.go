package lint

import "testing"

func TestNoWallTime(t *testing.T)   { runAnalyzerTest(t, NoWallTime, "testdata/nowalltime") }
func TestNoGlobalRand(t *testing.T) { runAnalyzerTest(t, NoGlobalRand, "testdata/noglobalrand") }
func TestNoMapOrder(t *testing.T)   { runAnalyzerTest(t, NoMapOrder, "testdata/nomaporder") }
func TestNoGoroutine(t *testing.T)  { runAnalyzerTest(t, NoGoroutine, "testdata/nogoroutine") }

// The scoped allowance for the bench parallel harness: the testdata pins its
// import path to startvoyager/internal/bench, where the directive-marked
// function is exempt and undirected concurrency is still flagged.
func TestNoGoroutineBenchHarness(t *testing.T) {
	runAnalyzerTest(t, NoGoroutine, "testdata/nogoroutine_bench")
}

// The engine package has no exemption: its testdata pins the import path to
// startvoyager/internal/sim, where a go statement is reported like anywhere
// else in model code.
func TestNoGoroutineSimPackage(t *testing.T) {
	runAnalyzerTest(t, NoGoroutine, "testdata/nogoroutine_sim")
}
func TestSimTimeUnits(t *testing.T) { runAnalyzerTest(t, SimTimeUnits, "testdata/simtimeunits") }
func TestSpanLeak(t *testing.T)     { runAnalyzerTest(t, SpanLeak, "testdata/spanleak") }
func TestNoAlloc(t *testing.T)      { runAnalyzerTest(t, NoAlloc, "testdata/noalloc") }

// TestSuitePolicy pins which packages each analyzer covers: wall-clock and
// goroutine rules protect model code under internal/, the engine included
// (Procs are coroutines, not goroutines), while the rand, map-order, and
// time-unit rules apply module-wide.
func TestSuitePolicy(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		path     string
		want     bool
	}{
		{NoWallTime, "startvoyager/internal/bus", true},
		{NoWallTime, "startvoyager/cmd/voyager-bench", false},
		{NoGoroutine, "startvoyager/internal/core", true},
		{NoGoroutine, "startvoyager/internal/sim", true},
		{NoGoroutine, "startvoyager/examples/samplesort", false},
		{NoGlobalRand, "startvoyager/cmd/voyager-net", true},
		{NoMapOrder, "startvoyager/internal/memcheck", true},
		{SimTimeUnits, "startvoyager/examples/samplesort", true},
		{SpanLeak, "startvoyager/internal/bus", true},
		{SpanLeak, "startvoyager/cmd/voyager-bench", true},
		{NoAlloc, "startvoyager/internal/sim", true},
		{NoAlloc, "startvoyager/cmd/voyager-bench", true},
	}
	for _, c := range cases {
		if got := c.analyzer.Applies(c.path); got != c.want {
			t.Errorf("%s.Applies(%q) = %v, want %v", c.analyzer.Name, c.path, got, c.want)
		}
	}
}

// TestSuiteComplete pins the suite contents so a new analyzer cannot be
// added without being wired into the drivers' shared entry point.
func TestSuiteComplete(t *testing.T) {
	want := []string{"nowalltime", "noglobalrand", "nomaporder", "nogoroutine", "simtimeunits", "spanleak", "noalloc"}
	suite := Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("suite[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil || a.Applies == nil {
			t.Errorf("%s: incomplete analyzer definition", a.Name)
		}
	}
}
