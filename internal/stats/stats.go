// Package stats provides instrumentation primitives for the simulation:
// counters, busy-time (occupancy) meters, latency samplers, and simple
// table/series formatting used by the benchmark harness.
//
// Its Registry names a machine's metrics by path. Registration stores one
// record per component: the component's pointer and its type's static
// metric table (Metrics), or for a set of like members (links, queues) the
// owner and its Family table. No path string and no per-metric state is
// stored; paths are built on demand by Paths, ReadGauge, WriteJSON and
// NewSampler, which resolves each path to its reader once.
package stats

import (
	"fmt"
	"sort"
	"strings"

	"startvoyager/internal/sim"
)

// Counter is a monotonically increasing event count with an associated
// quantity (e.g. packets and bytes).
type Counter struct {
	Events uint64
	Amount uint64
}

// Meter accrues busy time for a resource so experiments can report
// occupancy. Busy intervals may not nest.
type Meter struct {
	eng   *sim.Engine
	name  string
	busy  bool
	since sim.Time
	total sim.Time
	spans uint64
}

// NewMeter returns an idle meter.
func NewMeter(e *sim.Engine, name string) *Meter {
	return &Meter{eng: e, name: name}
}

// Start marks the resource busy. Starting a busy meter panics: intervals
// must not nest, since that would double-count occupancy.
func (m *Meter) Start() {
	if m.busy {
		panic(fmt.Sprintf("stats: meter %q: Start while busy (interval open since %v, now %v); busy intervals must not nest",
			m.name, m.since, m.eng.Now()))
	}
	m.busy = true
	m.since = m.eng.Now()
}

// Stop marks the resource idle.
func (m *Meter) Stop() {
	if !m.busy {
		panic(fmt.Sprintf("stats: meter %q: Stop while idle at %v; every Stop needs a matching Start",
			m.name, m.eng.Now()))
	}
	m.total += m.eng.Now() - m.since
	m.busy = false
	m.spans++
}

// BusyTime returns total busy time, including the current span if active.
//
//voyager:noalloc
func (m *Meter) BusyTime() sim.Time {
	t := m.total
	if m.busy {
		t += m.eng.Now() - m.since
	}
	return t
}

// Spans returns the number of completed busy intervals.
func (m *Meter) Spans() uint64 { return m.spans }

// Utilization returns busy time as a fraction of the window [from, to].
func (m *Meter) Utilization(from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	return float64(m.BusyTime()) / float64(to-from)
}

// Samples collects scalar samples (latencies, sizes) and reports their
// percentiles. (The windowed time-series scraper is Sampler, in series.go.)
type Samples struct {
	vals []float64
}

// Add records one sample.
func (s *Samples) Add(v float64) { s.vals = append(s.vals, v) }

// Percentile returns the p-th percentile (p in [0,100]) by nearest-rank.
func (s *Samples) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.vals...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Table is a simple fixed-column report used by the benchmark harness to
// print figure series the way the paper presents them.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row; values shorter than Columns are padded.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// FormatBytes renders a byte count compactly (e.g. "64B", "4KB", "1MB").
func FormatBytes(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// MBps converts bytes moved over a simulated duration into MB/s.
func MBps(bytes int, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / float64(d) * 1e9 / 1e6
}
