package bench

import (
	"bytes"
	"strings"
	"testing"

	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/fault"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// seriesScenario is the acceptance run: a four-node reliable all-to-one
// workload under a 5% drop plan with the windowed sampler attached, rendered
// to the series export and the voyager-stats report.
func seriesScenario(t *testing.T) (*stats.SeriesDoc, []byte, []byte) {
	t.Helper()
	plan, err := fault.ParsePlan("seed=7,drop=0.05")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.DefaultConfig(4)
	cfg.Faults = plan
	m := core.NewMachineConfig(cfg)
	sampler := m.Series(20 * sim.Microsecond)

	delivery := AllToOne{Mech: "reliable", Count: 60, Size: 1}.Spawn(m)
	m.Run()
	if delivery.Failed != 0 {
		t.Errorf("%d reliable sends failed", delivery.Failed)
	}
	sampler.Finish()

	meta := &stats.RunMeta{Tool: "series-test", Mechanism: "reliable", Nodes: 4,
		Seed: 7, FaultPlan: "seed=7,drop=0.05", SimTimeNs: int64(m.Eng.Now())}
	var seriesOut bytes.Buffer
	if err := sampler.WriteJSON(&seriesOut, meta); err != nil {
		t.Fatal(err)
	}
	doc, err := stats.ParseSeries(bytes.NewReader(seriesOut.Bytes()))
	if err != nil {
		t.Fatalf("export does not round-trip: %v", err)
	}
	var reportOut bytes.Buffer
	if err := stats.WriteReport(&reportOut, doc, stats.ReportOpts{TopK: 5, Width: 32}); err != nil {
		t.Fatal(err)
	}
	return doc, seriesOut.Bytes(), reportOut.Bytes()
}

// TestSeriesScenarioReport: the acceptance criterion — the faulty run's
// report shows per-window credit-stall and retransmit series, and both the
// export and the rendered report are byte-identical across same-seed runs.
func TestSeriesScenarioReport(t *testing.T) {
	doc, series1, report1 := seriesScenario(t)
	_, series2, report2 := seriesScenario(t)
	if !bytes.Equal(series1, series2) {
		t.Error("series exports differ between identical runs")
	}
	if !bytes.Equal(report1, report2) {
		t.Error("voyager-stats reports differ between identical runs")
	}

	var stallSeries, retransTotal int
	var drops int64
	for _, p := range doc.SortedPaths() {
		d := doc.Series[p]
		switch {
		case strings.HasSuffix(p, "/credit_stalls"):
			stallSeries++
		case strings.HasSuffix(p, "fault/retransmits"):
			for _, v := range d.Max {
				if v > 0 {
					retransTotal++
				}
			}
		case p == "net/fault/injected_drops":
			for _, v := range d.Max {
				if v > drops {
					drops = v
				}
			}
		}
	}
	if stallSeries == 0 {
		t.Error("no per-link credit_stalls series in the export")
	}
	if retransTotal == 0 {
		t.Error("no window recorded a retransmit under the drop plan")
	}
	if drops == 0 {
		t.Error("injected_drops series never rose under the drop plan")
	}

	report := string(report1)
	for _, want := range []string{
		"stall attribution by window",
		"retransmits",
		"credit-stalls",
		`faults="seed=7,drop=0.05"`,
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q", want)
		}
	}
}
