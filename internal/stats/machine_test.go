package stats_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/fault"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// TestRegistryConsistent holds every view of a whole machine's registry —
// a 64-node machine with a fault plan and a trace attached, so the fabric
// and its link family, every node component, CTRL's depth-gauge family, the
// fault injector and the trace ring register — to the same metric set. Paths are sorted and
// unique, made of non-empty segments; ReadGauge agrees with the JSON dump on
// every gauge and refuses every other path, every scope and every near miss;
// and the sampler scrapes exactly Paths(), in order.
func TestRegistryConsistent(t *testing.T) {
	cfg := cluster.DefaultConfig(64)
	plan, err := fault.ParsePlan("seed=7,drop=0.05")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	m := core.NewMachineConfig(cfg)
	defer m.Close()
	m.Trace(0)
	senders := 0
	for r := 1; r < 64; r += 9 {
		senders++
		m.Go(r, "send", func(p *sim.Proc, a *core.API) { _ = a.SendReliable(p, 0, []byte{1, 2, 3}) })
	}
	m.Go(0, "recv", func(p *sim.Proc, a *core.API) {
		for i := 0; i < senders; i++ {
			a.RecvReliable(p)
		}
	})
	m.Run()
	reg := m.Metrics()

	paths := reg.Paths()
	if !slices.IsSorted(paths) || len(slices.Compact(slices.Clone(paths))) != len(paths) {
		t.Fatal("Paths() is not sorted and unique")
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf, m.Eng.Now()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics map[string]struct {
			Kind  string
			Value int64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Metrics) != len(paths) {
		t.Fatalf("WriteJSON holds %d metrics, Paths() %d", len(doc.Metrics), len(paths))
	}
	isPath := make(map[string]bool, len(paths))
	for _, p := range paths {
		isPath[p] = true
	}
	gauges := 0
	for _, p := range paths {
		for _, seg := range strings.Split(p, "/") {
			if seg == "" {
				t.Fatalf("path %q has an empty segment", p)
			}
		}
		e, ok := doc.Metrics[p]
		if !ok {
			t.Fatalf("path %q missing from WriteJSON", p)
		}
		v, isGauge := reg.ReadGauge(p)
		if isGauge != (e.Kind == "gauge") || isGauge && v != e.Value {
			t.Errorf("ReadGauge(%q) = %d, %v; WriteJSON has kind %s value %d", p, v, isGauge, e.Kind, e.Value)
		}
		if isGauge {
			gauges++
		}
		for i := strings.LastIndexByte(p, '/'); i > 0; i = strings.LastIndexByte(p[:i], '/') {
			if _, ok := reg.ReadGauge(p[:i]); ok && !isPath[p[:i]] {
				t.Errorf("ReadGauge accepts scope %q", p[:i])
			}
		}
		for _, bad := range []string{p + "/", "/" + p, p + "x", p[:len(p)-1], strings.Replace(p, "/", "//", 1)} {
			if _, ok := reg.ReadGauge(bad); ok && !isPath[bad] {
				t.Errorf("ReadGauge accepts %q", bad)
			}
		}
	}
	if gauges == 0 {
		t.Fatal("no gauges registered")
	}
	for _, p := range []string{"", "/", "node64/bus/retries", "net/link/inj64/queued", "net/fault/nope"} {
		if _, ok := reg.ReadGauge(p); ok {
			t.Errorf("ReadGauge accepts unknown path %q", p)
		}
	}
	if v, ok := reg.ReadGauge("net/fault/injected_drops"); !ok || v != int64(m.Faults.Stats().InjectedDrops) {
		t.Errorf("net/fault/injected_drops = %d, %v; the injector counted %d", v, ok, m.Faults.Stats().InjectedDrops)
	}

	s := stats.NewSampler(m.Eng, reg, sim.Microsecond)
	if got := s.SeriesPaths(); !slices.Equal(got, paths) {
		t.Errorf("the sampler scrapes %d series, not the %d of Paths() in order", len(got), len(paths))
	}
}
