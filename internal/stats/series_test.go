package stats

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"startvoyager/internal/sim"
)

func TestSeriesWindowEdges(t *testing.T) {
	s := NewSeries(100)
	s.Observe(0, 5)    // window 0: [0, 100)
	s.Observe(99, 7)   // window 0
	s.Observe(100, 11) // exactly on the edge: window 1, never window 0
	s.Observe(199, 1)  // window 1
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if w := s.At(0); w.Count != 2 || w.Min != 5 || w.Max != 7 || w.Sum != 12 {
		t.Fatalf("window 0 = %+v", w)
	}
	if w := s.At(1); w.Count != 2 || w.Min != 1 || w.Max != 11 || w.Sum != 12 {
		t.Fatalf("window 1 = %+v", w)
	}
}

func TestSeriesEmptyWindows(t *testing.T) {
	s := NewSeries(10)
	s.Observe(5, 1)
	s.Observe(35, 2) // windows 1 and 2 are materialized empty
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	for _, i := range []int{1, 2} {
		if w := s.At(i); w != (Window{}) {
			t.Fatalf("gap window %d = %+v, want empty", i, w)
		}
	}
	if w := s.At(3); w.Count != 1 || w.Sum != 2 {
		t.Fatalf("window 3 = %+v", w)
	}
}

func TestSeriesNegativeValues(t *testing.T) {
	s := NewSeries(10)
	s.Observe(1, -4)
	s.Observe(2, -9)
	if w := s.At(0); w.Min != -9 || w.Max != -4 || w.Sum != -13 || w.Count != 2 {
		t.Fatalf("window 0 = %+v", w)
	}
}

func TestSeriesBackwardsObservePanics(t *testing.T) {
	s := NewSeries(10)
	s.Observe(25, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on backwards observation")
		}
	}()
	s.Observe(5, 1)
}

// sampleMachine builds a registry with one metric of every kind plus an
// event-driven workload that moves them, and a sampler over it.
func sampleMachine(t *testing.T, cfg SamplerConfig) (*sim.Engine, *Sampler) {
	t.Helper()
	eng := sim.NewEngine()
	reg := NewRegistry()
	c := &Counter{}
	reg.Counter("packets", c)
	depth := int64(0)
	reg.Gauge("depth", func() int64 { return depth })
	m := NewMeter(eng, "link")
	reg.Meter("busy", m)
	var acc sim.Time
	reg.Time("elapsed", func() sim.Time { return acc })
	h := NewHistogram(10, 100, 1000)
	reg.Histogram("lat", h)

	for i := sim.Time(1); i <= 40; i++ {
		at := i * 25 // events at 25, 50, ... 1000
		eng.At(at, func() {
			c.Add(8)
			depth++
			acc += 5
			h.Observe(int64(at % 150))
		})
	}
	eng.At(10, func() { m.Start() })
	eng.At(910, func() { m.Stop() })

	s := NewSampler(eng, reg, cfg)
	return eng, s
}

func TestSamplerWindows(t *testing.T) {
	eng, s := sampleMachine(t, SamplerConfig{Window: 200, Scrapes: 4})
	s.Start()
	eng.Run()
	s.Finish()

	if got := s.Windows(); got != 5 {
		t.Fatalf("windows = %d, want 5", got)
	}
	doc := s.Doc(nil)
	pk := doc.Series["packets"]
	// A boundary scrape runs before events scheduled exactly on it, so
	// window k captures exactly the events of [k*200, (k+1)*200): window 0
	// sees 25..175 (7 events), full windows see 8, and the event at 1000 —
	// the first instant of a window the run never enters — is deliberately
	// outside the recorded range.
	want := []int64{7, 8, 8, 8, 8}
	for i, w := range want {
		if pk.Sum[i] != w {
			t.Fatalf("packets sum[%d] = %d, want %d (%v)", i, pk.Sum[i], w, pk.Sum)
		}
	}
	// Gauge: depth rises monotonically; per-window max is the value at the
	// window-closing scrape.
	dp := doc.Series["depth"]
	for i := 1; i < len(dp.Max); i++ {
		if dp.Max[i] < dp.Max[i-1] {
			t.Fatalf("gauge max not monotonic: %v", dp.Max)
		}
	}
	// Meter: busy 10..910 -> full middle windows saturate at 200ns.
	bz := doc.Series["busy"]
	if bz.Sum[1] != 200 || bz.Sum[2] != 200 {
		t.Fatalf("busy sums = %v", bz.Sum)
	}
	// Histogram quantiles exist per window.
	lt := doc.Series["lat"]
	if len(lt.P50) != 5 || len(lt.P99) != 5 || len(lt.P999) != 5 {
		t.Fatalf("quantile lengths %d/%d/%d", len(lt.P50), len(lt.P99), len(lt.P999))
	}
	for i, c := range lt.Count {
		if c > 0 && lt.P50[i] == 0 {
			t.Fatalf("window %d has %d samples but p50 0: %v", i, c, lt.P50)
		}
	}
}

func TestSamplerPartialFinalWindow(t *testing.T) {
	eng, s := sampleMachine(t, SamplerConfig{Window: 300, Scrapes: 3})
	s.Start()
	eng.Run() // run ends at 1000: windows [0,300) [300,600) [600,900) [900,1000 partial)
	s.Finish()
	if got := s.Windows(); got != 4 {
		t.Fatalf("windows = %d, want 4", got)
	}
	doc := s.Doc(nil)
	pk := doc.Series["packets"]
	// Partial final window [900, 1000): the scrape at 1000 runs before the
	// event at 1000 executes, so it captures 900, 925, 950, 975 — 4 events —
	// and the event at 1000 falls in a window the run never enters.
	if pk.Sum[3] != 4 {
		t.Fatalf("partial window sum = %d, want 4 (%v)", pk.Sum[3], pk.Sum)
	}
}

func TestSamplerExportDeterministic(t *testing.T) {
	render := func() []byte {
		eng, s := sampleMachine(t, SamplerConfig{Window: 200})
		s.Start()
		eng.Run()
		s.Finish()
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf, &RunMeta{Tool: "test", Nodes: 1, Seed: 42, SimTimeNs: int64(eng.Now())}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("series export differs across identical runs")
	}
	doc, err := ParseSeries(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Run == nil || doc.Run.Seed != 42 {
		t.Fatalf("run meta round-trip: %+v", doc.Run)
	}
	if doc.Windows != 5 || len(doc.Series) != 5 {
		t.Fatalf("doc windows=%d series=%d", doc.Windows, len(doc.Series))
	}
}

func TestSeriesExportGolden(t *testing.T) {
	eng, s := sampleMachine(t, SamplerConfig{Window: 200})
	s.Start()
	eng.Run()
	s.Finish()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf, &RunMeta{Tool: "series-test", Mechanism: "basic", Nodes: 1, Seed: 7, SimTimeNs: int64(eng.Now())}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "series.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("series JSON differs from golden (run with -update to refresh):\n%s", buf.String())
	}
}

// TestSamplerScrapeAllocFree pins the scrape path at zero allocations per
// tick once capacity is Reserve'd — the noalloc discipline the
// //voyager:noalloc marks on scrape/closeWindow declare and voyager-vet
// checks statically.
func TestSamplerScrapeAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	reg := NewRegistry()
	c := &Counter{}
	reg.Counter("c", c)
	reg.Gauge("g", func() int64 { return 3 })
	reg.Meter("m", NewMeter(eng, "m"))
	reg.Time("t", func() sim.Time { return 0 })
	h := NewHistogram(ExpBounds(10, 2, 8)...)
	reg.Histogram("h", h)

	s := NewSampler(eng, reg, SamplerConfig{Window: 1000, Scrapes: 4})
	s.Reserve(2048)
	at := sim.Time(0)
	// Warm one tick so the method-value hook and any lazy state exist.
	at += 250
	s.tick(at)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(16)
		h.Observe(int64(at))
		at += 250
		s.tick(at)
	})
	if allocs != 0 {
		t.Fatalf("sampler tick allocates %.1f/op, want 0", allocs)
	}
}

func TestSamplerConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	reg := NewRegistry()
	for _, cfg := range []SamplerConfig{
		{Window: 0},
		{Window: -5},
		{Window: 100, Scrapes: 3}, // 100 % 3 != 0
		{Window: 100, Scrapes: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v did not panic", cfg)
				}
			}()
			NewSampler(eng, reg, cfg)
		}()
	}
}

// TestParseSeriesNullEntry: a null series entry is a named parse error, not
// a nil dereference in the window-count check.
func TestParseSeriesNullEntry(t *testing.T) {
	_, err := ParseSeries(strings.NewReader(`{"schema":"voyager-series/v1","series":{"x":null}}`))
	if !errors.Is(err, ErrNullSeries) {
		t.Fatalf("ParseSeries = %v, want ErrNullSeries", err)
	}
}
