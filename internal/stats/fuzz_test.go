package stats

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"startvoyager/internal/sim"
)

// FuzzParseSeries: ParseSeries never panics, every document it refuses gets
// one of its named errors, and every document it accepts renders through
// WriteReport — the voyager-stats report — without panicking, with the
// default options and with narrow ones that print a per-window table.
func FuzzParseSeries(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := ParseSeries(bytes.NewReader(data))
		if err != nil {
			for _, named := range []error{ErrSeriesJSON, ErrSeriesSchema, ErrNullSeries, ErrSeriesWindows} {
				if errors.Is(err, named) {
					return
				}
			}
			t.Fatalf("ParseSeries refused with an unnamed error: %v", err)
		}
		narrow := ReportOpts{TopK: 1, Width: 3}
		if paths := doc.SortedPaths(); len(paths) > 0 {
			narrow.Match = paths[0]
		}
		for _, opts := range []ReportOpts{{}, narrow} {
			if err := WriteReport(io.Discard, doc, opts); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// fuzzComp and fuzzOwner are a component type and a family owner for the
// registry the path fuzzer reads.
type fuzzComp struct {
	a, ab int64
	c     Counter
	h     *Histogram
}

type fuzzOwner struct {
	members []*fuzzComp
	depths  []int64
}

var fuzzCompMetrics = NewMetrics(
	GaugeOf("a", func(c *fuzzComp) int64 { return c.a }),
	GaugeOf("ab", func(c *fuzzComp) int64 { return c.ab }),
	TimeOf("t", func(c *fuzzComp) sim.Time { return sim.Time(c.a + c.ab) }),
	CounterOf("c", func(c *fuzzComp) *Counter { return &c.c }),
	HistogramOf("h", func(c *fuzzComp) *Histogram { return c.h }),
)

var fuzzMembers = NewFamily(fuzzCompMetrics,
	func(o *fuzzOwner) int { return len(o.members) },
	func(o *fuzzOwner, i int) string { return fmt.Sprintf("m%d", i) },
	func(o *fuzzOwner, i int) *fuzzComp { return o.members[i] })

var fuzzDepths = NewGaugeFamily(
	func(o *fuzzOwner) int { return len(o.depths) },
	func(o *fuzzOwner, i int) string { return fmt.Sprintf("q%d_depth", i) },
	func(o *fuzzOwner, i int) int64 { return o.depths[i] })

// fuzzRegistry builds a registry with every registration shape: one-row
// tables at the root and deep in the tree, a component table, a family of
// tables (members m0..m11, so m1 prefixes m10), a gauge family held as a
// scope's second table, and names that prefix one another.
func fuzzRegistry() *Registry {
	mk := func(v int64) *fuzzComp {
		c := &fuzzComp{a: v, ab: 2 * v, h: NewHistogram(10, 100)}
		c.c = Counter{Events: 1, Amount: uint64(v)}
		c.h.Observe(v)
		return c
	}
	owner := &fuzzOwner{depths: []int64{5, 6, 7}}
	for i := 0; i < 12; i++ {
		owner.members = append(owner.members, mk(int64(100+i)))
	}
	reg := NewRegistry()
	lone(reg, "up", 1)
	lone(reg, "upper", 2)
	net := reg.Child("net")
	fuzzCompMetrics.Register(net, mk(3))
	fuzzDepths.Register(net, owner)
	link := net.Child("link")
	fuzzMembers.Register(link, owner)
	lone(link.Child("m1x"), "g", 4)
	NewMetrics(MeterOf("aP", func(m *Meter) *Meter { return m })).
		Register(reg.Child("node0").Child("bus"), NewMeter(sim.NewEngine(), "aP0"))
	lone(reg.Child("node0"), "n", 9)
	return reg
}

// FuzzRegistryPath: ReadGauge never panics on an arbitrary string, and it
// reads exactly the gauge paths the registry renders — not a scope, not a
// non-gauge metric, not a path with an empty segment or a trailing "/", not
// a family member that does not exist, not a name that prefixes a real one.
func FuzzRegistryPath(f *testing.F) {
	reg := fuzzRegistry()
	gauges := map[string]int64{}
	for _, m := range reg.metrics() {
		if m.rd.row.kind == kindGauge {
			gauges[m.path] = m.rd.value()
		}
	}
	f.Fuzz(func(t *testing.T, path string) {
		v, ok := reg.ReadGauge(path)
		want, isGauge := gauges[path]
		if ok != isGauge || v != want {
			t.Fatalf("ReadGauge(%q) = %d, %v; want %d, %v", path, v, ok, want, isGauge)
		}
	})
}
