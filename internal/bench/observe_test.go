package bench

import (
	"bytes"
	"strings"
	"testing"

	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/prof"
	"startvoyager/internal/trace"
)

// canonicalRun runs the Canonical workload with the trace ring attached and,
// when profiler is non-nil, the profiler attached from construction and
// finished at the run's end.
func canonicalRun(profiler *prof.Profiler) (*core.Machine, *trace.Buffer) {
	cfg := cluster.DefaultConfig(CanonicalNodes)
	if profiler != nil {
		cfg.Profiler = profiler
	}
	m := core.NewMachineConfig(cfg)
	tbuf := m.Trace(1 << 18)
	Canonical(m)
	m.Run()
	if profiler != nil {
		profiler.Finish(m.Eng.Now())
	}
	return m, tbuf
}

// TestObservedRunCoverage is the whole-machine coverage gate for the
// observability layer: the canonical observed run must produce trace events
// from every traced component and metrics from every model package.
func TestObservedRunCoverage(t *testing.T) {
	m, tbuf := canonicalRun(nil)

	comps := map[string]bool{}
	for _, e := range tbuf.Events() {
		comps[e.Component] = true
	}
	for _, want := range []string{"aP", "bus", "cache", "ctrl", "fw", "sP", "net", "blockxfer"} {
		if !comps[want] {
			t.Errorf("no trace events from component %q (got %v)", want, keys(comps))
		}
	}

	// Packages that emit metrics only (mem) — and everything else — must
	// show up in the registry under their node/component paths.
	paths := m.Metrics().Paths()
	for _, prefix := range []string{
		"net/", "node0/bus/", "node0/cache/", "node0/mem/",
		"node0/ctrl/", "node0/fw/", "node0/aP",
	} {
		if !anyHasPrefix(paths, prefix) {
			t.Errorf("no metrics registered under %q", prefix)
		}
	}

	if m.Eng.Now() <= 0 {
		t.Error("canonical run simulated no time")
	}
	if s := tbuf.Stats(); s.Captured == 0 {
		t.Error("canonical run captured no trace events")
	}
}

// TestObservedRunDeterministic: two canonical runs export byte-identical
// artifacts.
func TestObservedRunDeterministic(t *testing.T) {
	render := func() ([]byte, []byte) {
		m, tbuf := canonicalRun(nil)
		var tr, me bytes.Buffer
		if err := tbuf.WritePerfetto(&tr); err != nil {
			t.Fatalf("WritePerfetto: %v", err)
		}
		if err := m.Metrics().WriteJSON(&me, m.Eng.Now()); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return tr.Bytes(), me.Bytes()
	}
	t1, m1 := render()
	t2, m2 := render()
	if !bytes.Equal(t1, t2) {
		t.Error("canonical run traces differ across identical runs")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("canonical run metrics differ across identical runs")
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func anyHasPrefix(paths []string, prefix string) bool {
	for _, p := range paths {
		if strings.HasPrefix(p, prefix) {
			return true
		}
	}
	return false
}
