package stats

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// reportDoc builds a small synthetic series document exercising every report
// section: link busy/stall/queued series, a queue depth gauge, fault
// counters, and a histogram with quantiles.
func reportDoc() *SeriesDoc {
	n := 6
	mk := func(kind string, sums ...int64) *SeriesData {
		d := &SeriesData{
			Kind: kind,
			Min:  make([]int64, n), Max: make([]int64, n),
			Sum: make([]int64, n), Count: make([]uint64, n),
		}
		for i, s := range sums {
			d.Sum[i] = s
			d.Max[i] = s
			d.Min[i] = s
			if s != 0 {
				d.Count[i] = 1
			}
		}
		return d
	}
	hist := mk("histogram", 3, 5, 0, 2, 7, 1)
	hist.P50 = []int64{100, 200, 0, 100, 400, 100}
	hist.P99 = []int64{400, 800, 0, 200, 1600, 100}
	hist.P999 = []int64{400, 800, 0, 200, 3200, 100}
	return &SeriesDoc{
		Schema:   SeriesSchema,
		Run:      &RunMeta{Tool: "report-test", Mechanism: "reliable", Nodes: 4, Seed: 7, FaultPlan: "seed=7,drop=0.05", SimTimeNs: 60000},
		WindowNs: 10000,
		Scrapes:  4,
		Windows:  n,
		Series: map[string]*SeriesData{
			"net/link/inj0/busy":          mk("time", 4000, 9000, 10000, 10000, 2000, 0),
			"net/link/inj0/credit_stalls": mk("counter", 0, 2, 5, 3, 0, 0),
			"net/link/inj0/queued":        mk("gauge", 1, 3, 4, 4, 1, 0),
			"net/link/ej1/busy":           mk("time", 1000, 2000, 3000, 1000, 0, 0),
			"net/link/ej1/credit_stalls":  mk("counter", 0, 0, 0, 0, 0, 0),
			"net/link/ej1/queued":         mk("gauge", 0, 1, 1, 0, 0, 0),
			"node0/ctrl/rxq0_depth":       mk("gauge", 2, 6, 8, 8, 3, 0),
			"node0/bus/waiters":           mk("gauge", 0, 1, 2, 1, 0, 0),
			"node0/fw/sp_busy":            mk("time", 1000, 2000, 3000, 2000, 500, 500),
			"node0/fw/sp_idle":            mk("time", 9000, 8000, 7000, 8000, 9500, 9500),
			"node1/fw/sp_busy":            mk("time", 500, 0, 0, 200, 0, 0),
			"node1/fw/sp_idle":            mk("time", 9500, 10000, 10000, 9800, 10000, 10000),
			"node1/fault/retransmits":     mk("gauge", 0, 1, 3, 6, 7, 7),
			"net/fault/injected_drops":    mk("gauge", 0, 1, 2, 4, 5, 5),
			"net/fault/outage_drops":      mk("gauge", 0, 0, 3, 3, 3, 3),
			"net/fault/death_drops":       mk("gauge", 0, 0, 0, 2, 4, 4),
			"net/delivery_latency_ns":     hist,
		},
	}
}

func TestReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReport(&buf, reportDoc(), ReportOpts{TopK: 5, Width: 16, Match: "delivery_latency"}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report.golden")
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
		t.Fatalf("report differs from golden (run with -update to refresh):\n%s", buf.String())
	}
}

func TestReportSections(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReport(&buf, reportDoc(), ReportOpts{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"voyager-stats report",
		"tool=report-test",
		`faults="seed=7,drop=0.05"`,
		"hottest links by busy time",
		"credit-stalled links",
		"link utilization heatmap",
		"credit-stall heatmap",
		"deepest queues",
		"sP occupancy by node",
		"stall attribution by window",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q", want)
		}
	}
	// Stall attribution: retransmit gauge deltas, not cumulative values.
	if !strings.Contains(out, "retransmits") {
		t.Error("no retransmit column")
	}
}

// TestReportHeatmapTruncation: with more active links than TopK, the
// heatmap keeps the hottest rows and says exactly how many it left out; at
// or under TopK no such line appears (so small-config reports are unchanged).
func TestReportHeatmapTruncation(t *testing.T) {
	n := 4
	doc := &SeriesDoc{Schema: SeriesSchema, WindowNs: 10000, Scrapes: 4, Windows: n,
		Series: map[string]*SeriesData{}}
	for i := 0; i < 12; i++ {
		d := &SeriesData{Kind: "time",
			Min: make([]int64, n), Max: make([]int64, n),
			Sum: make([]int64, n), Count: make([]uint64, n)}
		for w := 0; w < n; w++ {
			d.Sum[w] = int64(100 * (i + 1))
			d.Count[w] = 1
		}
		doc.Series[fmt.Sprintf("net/link/up-l0-w0-j%d/busy", i)] = d
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, doc, ReportOpts{TopK: 5}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(7 more active links omitted") {
		t.Errorf("truncated heatmap lacks the omitted-links line:\n%s", buf.String())
	}

	buf.Reset()
	if err := WriteReport(&buf, doc, ReportOpts{TopK: 12}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "omitted") {
		t.Errorf("untruncated heatmap claims omissions:\n%s", buf.String())
	}
}

func TestReportDeterministic(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		if err := WriteReport(&buf, reportDoc(), ReportOpts{Match: "net/"}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Fatal("report differs across identical renders")
	}
}

func TestReportEmptyDoc(t *testing.T) {
	doc := &SeriesDoc{Schema: SeriesSchema, WindowNs: 1000, Scrapes: 4, Windows: 0,
		Series: map[string]*SeriesData{}}
	var buf bytes.Buffer
	if err := WriteReport(&buf, doc, ReportOpts{Match: "zzz"}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"no link busy series", "no credit stalls", "no queue depth", "no series matched"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("empty-doc report lacks %q:\n%s", want, buf.String())
		}
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline([]int64{0, 1, 4, 8}, 8); got[0] != ' ' || got[3] != '@' {
		t.Fatalf("sparkline = %q", got)
	}
	// Downsampling keeps peaks: 100 values with one spike still shows '@'.
	vals := make([]int64, 100)
	vals[37] = 50
	if got := sparkline(vals, 10); !strings.Contains(got, "@") {
		t.Fatalf("peak lost in downsample: %q", got)
	}
	if got := len(sparkline(make([]int64, 500), 64)); got != 64 {
		t.Fatalf("width = %d", got)
	}
}

// TestRampCharScale: the glyph is 1 + 7v/max, clamped to the ramp, and
// values near the int64 limit pick the glyph their ratio calls for instead
// of wrapping to a negative index.
func TestRampCharScale(t *testing.T) {
	for max := int64(1); max <= 40; max++ {
		for v := int64(-1); v <= 50; v++ {
			want := sparkRamp[0]
			if v > 0 {
				want = sparkRamp[min(1+7*v/max, int64(len(sparkRamp)-1))]
			}
			if got := rampChar(v, max); got != want {
				t.Fatalf("rampChar(%d, %d) = %q, want %q", v, max, got, want)
			}
		}
	}
	const big = math.MaxInt64
	for _, c := range []struct {
		v, max int64
		want   byte
	}{{big - 1, big, '#'}, {big / 2, big, '='}, {2e18, 2e18, '@'}, {2e18, 4e18, '='}, {1, big, '.'}} {
		if got := rampChar(c.v, c.max); got != c.want {
			t.Errorf("rampChar(%d, %d) = %q, want %q", c.v, c.max, got, c.want)
		}
	}
}

// TestPctTenths: percentages are exact for every int64 numerator; 1e16 and
// the int64 limits overflowed num*1000. The voyager-prof report prints its
// shares through the same function.
func TestPctTenths(t *testing.T) {
	for _, c := range []struct {
		num, den int64
		want     string
	}{
		{125, 1000, "12.5%"}, {1, 3, "33.3%"}, {0, 5, "0.0%"}, {5, 0, "0.0%"}, {2000, 1000, "200.0%"},
		{1e16, 1e16, "100.0%"}, {math.MaxInt64, 1, "922337203685477580700.0%"},
		{math.MaxInt64, math.MaxInt64 - 1, "100.0%"}, {-125, 1000, "-12.5%"},
	} {
		if got := PctTenths(c.num, c.den); got != c.want {
			t.Errorf("PctTenths(%d,%d) = %q, want %q", c.num, c.den, got, c.want)
		}
	}
}

// TestReportHugeBusy: a link busy for 1e16 ns of a 1e16 ns window reads
// 100% utilized, where num*1000 overflowed int64 and printed
// "-844674407370955.-1%".
func TestReportHugeBusy(t *testing.T) {
	one := func(kind string, v int64) *SeriesData {
		return &SeriesData{Kind: kind, Min: []int64{v}, Max: []int64{v}, Sum: []int64{v}, Count: []uint64{1}}
	}
	doc := &SeriesDoc{
		Schema: SeriesSchema, WindowNs: 1e16, Scrapes: 4, Windows: 1,
		Series: map[string]*SeriesData{
			"net/link/inj0/busy":          one("time", 1e16),
			"net/link/inj0/credit_stalls": one("counter", 0),
		},
	}
	var b strings.Builder
	if err := WriteReport(&b, doc, ReportOpts{}); err != nil {
		t.Fatal(err)
	}
	var row string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "inj0 ") {
			row = line
			break
		}
	}
	if f := strings.Fields(row); len(f) < 4 || f[2] != "100.0%" || f[3] != "100.0%" {
		t.Errorf("hot-link row %q, want util and peak-win 100.0%%\n%s", row, b.String())
	}
}

func TestGaugeWindowDeltas(t *testing.T) {
	d := &SeriesData{
		Max:   []int64{2, 5, 5, 9},
		Count: []uint64{1, 1, 1, 1},
	}
	got := gaugeWindowDeltas(d)
	want := []int64{2, 3, 0, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("deltas = %v, want %v", got, want)
		}
	}
}
