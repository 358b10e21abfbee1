package stats

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"startvoyager/internal/sim"
)

// TestSeriesWindowEdges: window k covers [k*W, (k+1)*W), so an event
// stamped exactly on a window edge lands in the window that starts there,
// never the one that ends there.
func TestSeriesWindowEdges(t *testing.T) {
	eng := sim.NewEngine()
	reg := NewRegistry()
	var c Counter
	NewMetrics(CounterOf("c", func(c *Counter) *Counter { return c })).Register(reg, &c)
	for _, at := range []sim.Time{0, 99, 100, 199} {
		eng.At(at, func() { c.Events++ })
	}
	s := NewSampler(eng, reg, SamplerConfig{Window: 100, Scrapes: 1})
	s.Start()
	eng.Run()
	s.Finish()
	if sum := s.Doc(nil).Series["c"].Sum; !slices.Equal(sum, []int64{2, 2}) {
		t.Fatalf("per-window events %v, want [2 2]", sum)
	}
}

func TestSeriesEmptyWindows(t *testing.T) {
	var s Series
	s.ensure(0)
	s.add(0, 1)
	s.ensure(3) // windows 1 and 2 are materialized empty
	s.add(3, 2)
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
	var s Series
	s.ensure(0)
	s.add(0, -4)
	s.add(0, -9)
	if w := s.At(0); w.Min != -9 || w.Max != -4 || w.Sum != -13 || w.Count != 2 {
		t.Fatalf("window 0 = %+v", w)
	}
}

// sampleMachine builds a registry with one metric of every kind plus an
// event-driven workload that moves them, and a sampler over it.
func sampleMachine(t *testing.T, cfg SamplerConfig) (*sim.Engine, *Sampler) {
	t.Helper()
	eng := sim.NewEngine()
	reg := NewRegistry()
	p := &probe{m: NewMeter(eng, "link"), h: NewHistogram(10, 100, 1000)}
	probeMetrics("packets", "depth", "busy", "elapsed", "lat").Register(reg, p)

	for i := sim.Time(1); i <= 40; i++ {
		at := i * 25 // events at 25, 50, ... 1000
		eng.At(at, func() {
			p.c.Events++
			p.c.Amount += 8
			p.g++
			p.t += 5
			p.h.Observe(int64(at % 150))
		})
	}
	eng.At(10, func() { p.m.Start() })
	eng.At(910, func() { p.m.Stop() })

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
// tick once its windows exist — the noalloc discipline the
// //voyager:noalloc marks on scrape/closeWindow declare and voyager-vet
// checks statically. Window growth is ensure's, outside that path.
func TestSamplerScrapeAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	reg := NewRegistry()
	p := &probe{g: 3, m: NewMeter(eng, "m"), h: NewHistogram(ExpBounds(10, 2, 8)...)}
	probeMetrics("c", "g", "m", "t", "h").Register(reg, p)

	s := NewSampler(eng, reg, SamplerConfig{Window: 1000, Scrapes: 4})
	// The measured ticks reach window 250.
	s.ensure(251)
	at := sim.Time(0)
	// Warm one tick so the method-value hook and any lazy state exist.
	at += 250
	s.tick(at)
	allocs := testing.AllocsPerRun(1000, func() {
		p.c.Events++
		p.h.Observe(int64(at))
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
