package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"startvoyager/internal/sim"
)

func TestMeterAccrual(t *testing.T) {
	e := sim.NewEngine()
	m := NewMeter(e, "aP")
	e.Schedule(0, func() { m.Start() })
	e.Schedule(10, func() { m.Stop() })
	e.Schedule(20, func() { m.Start() })
	e.Schedule(35, func() { m.Stop() })
	e.Run()
	if m.BusyTime() != 25 {
		t.Fatalf("busy = %v, want 25", m.BusyTime())
	}
	if m.Spans() != 2 {
		t.Fatalf("spans = %d, want 2", m.Spans())
	}
	if u := m.Utilization(0, 50); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
}

func TestMeterOpenSpanCounted(t *testing.T) {
	e := sim.NewEngine()
	m := NewMeter(e, "x")
	e.Schedule(5, func() { m.Start() })
	e.Schedule(30, func() {}) // advance time
	e.Run()
	if m.BusyTime() != 25 {
		t.Fatalf("busy = %v, want 25 (open span)", m.BusyTime())
	}
}

func TestMeterDoubleStartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m := NewMeter(sim.NewEngine(), "x")
	m.Start()
	m.Start()
}

func TestMeterStopIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMeter(sim.NewEngine(), "x").Stop()
}

func TestSamples(t *testing.T) {
	var s Samples
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if p := s.Percentile(50); p != 3 {
		t.Fatalf("p50 = %v, want 3", p)
	}
	if p := s.Percentile(0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := s.Percentile(100); p != 5 {
		t.Fatalf("p100 = %v", p)
	}
}

func TestSamplerEmpty(t *testing.T) {
	var s Samples
	if s.Percentile(50) != 0 {
		t.Fatal("empty sampler should report zero")
	}
}

// Property: percentile is always within [min, max] and monotone in p.
func TestPercentileProperty(t *testing.T) {
	f := func(vals []float64, a, b uint8) bool {
		var s Samples
		n, lo, hi := 0, math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(v)
			n++
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if n == 0 {
			return true
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, vb := s.Percentile(pa), s.Percentile(pb)
		return va >= lo && vb <= hi && va <= vb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "Fig 3", Columns: []string{"size", "lat"}}
	tab.AddRow("64B", "1.2us")
	tab.AddRow("4KB") // short row padded
	out := tab.String()
	if !strings.Contains(out, "Fig 3") || !strings.Contains(out, "64B") {
		t.Fatalf("bad table:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int]string{64: "64B", 4096: "4KB", 1 << 20: "1MB", 1000: "1000B"}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestMBps(t *testing.T) {
	// 160 bytes in 1000ns = 160 MB/s.
	if got := MBps(160, 1000); math.Abs(got-160) > 1e-9 {
		t.Fatalf("MBps = %v, want 160", got)
	}
	if MBps(100, 0) != 0 {
		t.Fatal("zero duration should yield 0")
	}
}
