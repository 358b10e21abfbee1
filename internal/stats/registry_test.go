package stats

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"startvoyager/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// probe is a test component with one metric of each kind.
type probe struct {
	c Counter
	g int64
	m *Meter
	t sim.Time
	h *Histogram
}

// probeMetrics declares a probe's counter, gauge, meter, time and histogram
// under the given names.
func probeMetrics(c, g, m, t, h string) *Metrics[probe] {
	return NewMetrics(
		CounterOf(c, func(p *probe) *Counter { return &p.c }),
		GaugeOf(g, func(p *probe) int64 { return p.g }),
		MeterOf(m, func(p *probe) *Meter { return p.m }),
		TimeOf(t, func(p *probe) sim.Time { return p.t }),
		HistogramOf(h, func(p *probe) *Histogram { return p.h }),
	)
}

// lone registers the constant v as the gauge name under r, through a
// one-row table.
func lone(r *Registry, name string, v int64) {
	NewMetrics(GaugeOf(name, func(v *int64) int64 { return *v })).Register(r, &v)
}

func buildRegistry(eng *sim.Engine) *Registry {
	p := &probe{c: Counter{Events: 2, Amount: 64 + 96}, g: 7,
		m: NewMeter(eng, "aP0"), h: NewHistogram(8, 16, 32)}
	p.m.Start()
	p.h.Observe(8)
	p.h.Observe(9)
	p.h.Observe(40)
	reg := NewRegistry()
	n0 := reg.Child("node0")
	NewMetrics(
		CounterOf("data", func(p *probe) *Counter { return &p.c }),
		GaugeOf("retries", func(p *probe) int64 { return p.g }),
	).Register(n0.Child("bus"), p)
	NewMetrics(
		MeterOf("aP", func(p *probe) *Meter { return p.m }),
		TimeOf("uptime", func(*probe) sim.Time { return eng.Now() }),
	).Register(n0, p)
	NewMetrics(HistogramOf("latency", func(p *probe) *Histogram { return p.h })).Register(reg.Child("net"), p)
	return reg
}

func TestRegistryGolden(t *testing.T) {
	eng := sim.NewEngine()
	reg := buildRegistry(eng)
	eng.Schedule(250, func() {})
	eng.Run()

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf, eng.Now()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("metrics JSON differs from golden (run with -update to refresh):\n%s", buf.String())
	}
}

func TestRegistryPathsSorted(t *testing.T) {
	reg := buildRegistry(sim.NewEngine())
	paths := reg.Paths()
	if len(paths) != 5 {
		t.Fatalf("paths %v", paths)
	}
	for i := 1; i < len(paths); i++ {
		if paths[i-1] >= paths[i] {
			t.Fatalf("paths not sorted: %v", paths)
		}
	}
}

func TestRegistryBadNamePanics(t *testing.T) {
	for _, bad := range []string{"", "a/b"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q did not panic", bad)
				}
			}()
			NewRegistry().Child(bad)
		}()
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram(10, 20, 40)
	// A sample exactly on a bound lands in that bucket (le semantics);
	// one past it lands in the next.
	h.Observe(10) // bucket 0 (le 10)
	h.Observe(11) // bucket 1 (le 20)
	h.Observe(20) // bucket 1
	h.Observe(40) // bucket 2 (le 40)
	h.Observe(41) // overflow
	h.Observe(-5) // below first bound: bucket 0
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if _, c, _ := h.Bucket(i); c != w {
			t.Fatalf("bucket %d count %d, want %d", i, c, w)
		}
	}
	if h.Count() != 6 || h.Min() != -5 || h.Max() != 41 || h.Sum() != 10+11+20+40+41-5 {
		t.Fatalf("summary count=%d min=%d max=%d sum=%d", h.Count(), h.Min(), h.Max(), h.Sum())
	}
	if _, _, bounded := h.Bucket(3); bounded {
		t.Fatal("overflow bucket reported a bound")
	}
}

func TestHistogramSingleObservationMinMax(t *testing.T) {
	h := NewHistogram(100)
	h.Observe(42)
	if h.Min() != 42 || h.Max() != 42 {
		t.Fatalf("min=%d max=%d", h.Min(), h.Max())
	}
}

func TestHistogramObserveTime(t *testing.T) {
	h := NewHistogram(int64(sim.Microsecond))
	h.ObserveTime(500 * sim.Nanosecond)
	if _, c, _ := h.Bucket(0); c != 1 {
		t.Fatalf("bucket 0 count %d", c)
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	for _, bounds := range [][]int64{{}, {5, 5}, {5, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v did not panic", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

func TestExpBounds(t *testing.T) {
	got := ExpBounds(1000, 2, 4)
	want := []int64{1000, 2000, 4000, 8000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBounds = %v", got)
		}
	}
}

func TestMeterPanicsNameTime(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMeter(eng, "aP3")
	m.Start()
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "aP3") || !strings.Contains(msg, "must not nest") {
				t.Fatalf("Start panic %q", msg)
			}
		}()
		m.Start()
	}()
	m.Stop()
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "aP3") || !strings.Contains(msg, "Stop while idle") {
				t.Fatalf("Stop panic %q", msg)
			}
		}()
		m.Stop()
	}()
}

// TestRegistryTablesAndFamilies: a component table renders its rows under
// its scope, a family renders each member's rows under the member's name, a
// gauge family names each gauge by its member, and a scope's second table
// adds no path segment.
func TestRegistryTablesAndFamilies(t *testing.T) {
	var want []string
	want = append(want, "net/a", "net/ab", "net/c", "net/h")
	for i := 0; i < 12; i++ {
		for _, row := range []string{"a", "ab", "c", "h", "t"} {
			want = append(want, fmt.Sprintf("net/link/m%d/%s", i, row))
		}
	}
	want = append(want, "net/link/m1x/g", "net/q0_depth", "net/q1_depth", "net/q2_depth", "net/t",
		"node0/bus/aP", "node0/n", "up", "upper")
	sort.Strings(want)
	if got := fuzzRegistry().Paths(); !slices.Equal(got, want) {
		t.Errorf("Paths() =\n%v\nwant\n%v", got, want)
	}
	reg := fuzzRegistry()
	for path, v := range map[string]int64{"net/ab": 6, "net/link/m11/a": 111, "net/q1_depth": 6, "upper": 2} {
		if got, ok := reg.ReadGauge(path); !ok || got != v {
			t.Errorf("ReadGauge(%q) = %d, %v; want %d", path, got, ok, v)
		}
	}
}

// TestNewMetricsBadNamePanics: a table row name must be one path segment,
// checked when the table is declared.
func TestNewMetricsBadNamePanics(t *testing.T) {
	for _, bad := range []string{"", "a/b"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("row name %q did not panic", bad)
				}
			}()
			NewMetrics(GaugeOf(bad, func(c *Counter) int64 { return 0 }))
		}()
	}
}
