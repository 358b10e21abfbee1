package stats

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"

	"startvoyager/internal/sim"
)

// This file renders voyager-series/v1 documents as deterministic text
// reports — the voyager-stats CLI is a thin flag wrapper around WriteReport.
// Every number is integer math over the exported arrays and every list is
// explicitly sorted, so the same document always renders byte-identically.

// ReportOpts configures WriteReport.
type ReportOpts struct {
	// TopK bounds the hottest-links / deepest-queues lists (default 10).
	TopK int
	// Width is the sparkline/heatmap column budget; series longer than this
	// are downsampled by per-bucket max (default 64).
	Width int
	// Match, when non-empty, additionally prints a full per-window table for
	// every series whose path contains the substring.
	Match string
}

func (o *ReportOpts) fill() {
	if o.TopK <= 0 {
		o.TopK = 10
	}
	if o.Width <= 0 {
		o.Width = 64
	}
}

// sparkRamp maps intensity 0..8 to an ASCII glyph; index 0 (a true zero)
// renders as space so quiet windows read as gaps.
const sparkRamp = " .:-=+*#@"

// sparkline renders vals scaled against max(vals), downsampled to at most
// width columns by per-bucket max.
func sparkline(vals []int64, width int) string {
	vals = downsampleMax(vals, width)
	var max int64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		b.WriteByte(rampChar(v, max))
	}
	return b.String()
}

// rampChar picks the ramp glyph for v against scale max: zero is blank, any
// nonzero value renders at least the faintest glyph, and v >= max the
// darkest. The scaled product is taken in 128 bits, so values near the
// int64 limit cannot wrap to a negative glyph index.
func rampChar(v, max int64) byte {
	if v <= 0 || max <= 0 {
		return sparkRamp[0]
	}
	if v >= max {
		return sparkRamp[len(sparkRamp)-1]
	}
	hi, lo := bits.Mul64(uint64(v), uint64(len(sparkRamp)-2))
	step, _ := bits.Div64(hi, lo, uint64(max)) // hi < max, as v < max
	return sparkRamp[1+step]
}

// downsampleMax reduces vals to at most width buckets, each the max of its
// slice of the input (peaks survive; a saturated window cannot average away).
func downsampleMax(vals []int64, width int) []int64 {
	if len(vals) <= width {
		return vals
	}
	out := make([]int64, width)
	for i := 0; i < width; i++ {
		lo, hi := i*len(vals)/width, (i+1)*len(vals)/width
		if hi == lo {
			hi = lo + 1
		}
		m := vals[lo]
		for _, v := range vals[lo+1 : hi] {
			if v > m {
				m = v
			}
		}
		out[i] = m
	}
	return out
}

// PctTenths renders num/den as a percentage with one decimal, truncated, in
// pure integer math ("12.5%"), exact for every int64 numerator. The
// voyager-stats and voyager-prof reports both print their shares with it.
func PctTenths(num, den int64) string {
	if den <= 0 {
		return "0.0%"
	}
	// num/den = q + r/den, so the percentage is q*100 plus the first three
	// digits of r/den; r < den keeps the 128-bit quotient below 1000, and
	// q is printed before those digits rather than scaled, so no product
	// can overflow. A negative num renders its magnitude behind a sign.
	sign, mag := "", uint64(num)
	if num < 0 {
		sign, mag = "-", -mag
	}
	q, r := mag/uint64(den), mag%uint64(den)
	hi, lo := bits.Mul64(r, 1000)
	t, _ := bits.Div64(hi, lo, uint64(den))
	if q == 0 {
		return fmt.Sprintf("%s%d.%d%%", sign, t/10, t%10)
	}
	return fmt.Sprintf("%s%d%02d.%d%%", sign, q, t/10, t%10)
}

// seriesRef is one selected series plus its precomputed per-window sums.
type seriesRef struct {
	path  string
	short string // path with the selection prefix/suffix stripped
	data  *SeriesData
	sums  []int64
	total int64
	peak  int64 // hottest single-window sum
}

// selectSeries picks the series under prefix ending in "/"+leaf, sorted by
// total sum descending (ties by path), with per-window sums precomputed.
func selectSeries(doc *SeriesDoc, prefix, leaf string) []*seriesRef {
	var out []*seriesRef
	for _, p := range doc.SortedPaths() {
		if !strings.HasPrefix(p, prefix) || !strings.HasSuffix(p, "/"+leaf) {
			continue
		}
		d := doc.Series[p]
		r := &seriesRef{
			path:  p,
			short: strings.TrimSuffix(strings.TrimPrefix(p, prefix), "/"+leaf),
			data:  d,
			sums:  d.Sum,
		}
		for _, v := range d.Sum {
			r.total += v
			if v > r.peak {
				r.peak = v
			}
		}
		out = append(out, r)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].total != out[j].total {
			return out[i].total > out[j].total
		}
		return out[i].path < out[j].path
	})
	return out
}

// gaugeWindowDeltas converts a monotonic cumulative gauge series into
// per-window increments using each window's closing (max) sample.
func gaugeWindowDeltas(d *SeriesData) []int64 {
	out := make([]int64, len(d.Max))
	var prev int64
	for i, v := range d.Max {
		if d.Count[i] == 0 {
			out[i] = 0
			continue
		}
		out[i] = v - prev
		prev = v
	}
	return out
}

// sumMatching adds up, window by window, one derived series per path
// selected by pred; derive maps a series to its per-window contribution.
func sumMatching(doc *SeriesDoc, pred func(string) bool, derive func(*SeriesData) []int64) []int64 {
	out := make([]int64, doc.Windows)
	for _, p := range doc.SortedPaths() {
		if !pred(p) {
			continue
		}
		for i, v := range derive(doc.Series[p]) {
			out[i] += v
		}
	}
	return out
}

// WriteReport renders the deterministic text report voyager-stats prints:
// run header, top-K hottest links and deepest queues, link-utilization and
// credit-stall heatmaps, stall attribution by window, and (with Match) full
// per-window series tables.
func WriteReport(w io.Writer, doc *SeriesDoc, opts ReportOpts) error {
	opts.fill()
	var b strings.Builder

	writeHeader(&b, doc)
	links := selectSeries(doc, "net/link/", "busy")
	stalls := selectSeries(doc, "net/link/", "credit_stalls")
	writeHotLinks(&b, doc, links, opts)
	writeHeatmap(&b, "link utilization heatmap (rows: hottest links, cols: windows, cell: window busy %)",
		links, opts, int64(doc.WindowNs))
	writeStalledLinks(&b, stalls, opts)
	writeHeatmap(&b, "credit-stall heatmap (rows: most-stalled links, cols: windows, cell: stalls vs global peak)",
		stalls, opts, 0)
	writeQueues(&b, doc, opts)
	writeSpOccupancy(&b, doc, opts)
	writeStallAttribution(&b, doc, opts)
	if opts.Match != "" {
		writeMatchTables(&b, doc, opts)
	}

	_, err := io.WriteString(w, b.String())
	return err
}

func writeHeader(b *strings.Builder, doc *SeriesDoc) {
	fmt.Fprintf(b, "== voyager-stats report (%s) ==\n", doc.Schema)
	if r := doc.Run; r != nil {
		fmt.Fprintf(b, "run: tool=%s nodes=%d seed=%d", r.Tool, r.Nodes, r.Seed)
		if r.Mechanism != "" {
			fmt.Fprintf(b, " mech=%s", r.Mechanism)
		}
		if r.FaultPlan != "" {
			fmt.Fprintf(b, " faults=%q", r.FaultPlan)
		}
		fmt.Fprintf(b, " sim_time=%v\n", sim.Time(r.SimTimeNs))
	}
	fmt.Fprintf(b, "window: %v x %d windows (%d scrapes/window), %d series\n\n",
		sim.Time(doc.WindowNs), doc.Windows, doc.Scrapes, len(doc.Series))
}

func writeHotLinks(b *strings.Builder, doc *SeriesDoc, links []*seriesRef, opts ReportOpts) {
	t := Table{
		Title:   fmt.Sprintf("top %d hottest links by busy time", opts.TopK),
		Columns: []string{"link", "busy", "util", "peak-win", "spark"},
	}
	for _, l := range topK(links, opts.TopK) {
		total := int64(doc.WindowNs) * int64(doc.Windows)
		t.AddRow(l.short, sim.Time(l.total).String(),
			PctTenths(l.total, total),
			PctTenths(l.peak, int64(doc.WindowNs)),
			sparkline(l.sums, opts.Width))
	}
	writeTableOrNone(b, &t, "no link busy series in document")
}

func writeStalledLinks(b *strings.Builder, stalls []*seriesRef, opts ReportOpts) {
	t := Table{
		Title:   fmt.Sprintf("top %d credit-stalled links", opts.TopK),
		Columns: []string{"link", "stalls", "peak-win", "spark"},
	}
	for _, l := range topK(stalls, opts.TopK) {
		if l.total == 0 {
			continue
		}
		t.AddRow(l.short, fmt.Sprintf("%d", l.total), fmt.Sprintf("%d", l.peak),
			sparkline(l.sums, opts.Width))
	}
	writeTableOrNone(b, &t, "no credit stalls recorded")
}

// writeHeatmap prints one row per selected series. A nonzero denom scales
// every cell against it (utilization); zero scales against the global peak
// window across the selection.
func writeHeatmap(b *strings.Builder, title string, sel []*seriesRef, opts ReportOpts, denom int64) {
	rows := topK(sel, opts.TopK)
	live := make([]*seriesRef, 0, len(rows))
	scale := denom
	for _, r := range rows {
		if r.total != 0 {
			live = append(live, r)
		}
		if denom == 0 && r.peak > scale {
			scale = r.peak
		}
	}
	// Rows beyond TopK are truncated, not silently: a 1024-node tree holds
	// >10k links, and a heatmap is only legible — and only honest — if it
	// says how much activity it is not showing.
	activeTotal := 0
	for _, r := range sel {
		if r.total != 0 {
			activeTotal++
		}
	}
	omitted := activeTotal - len(live)
	fmt.Fprintf(b, "== %s ==\n", title)
	if len(live) == 0 {
		b.WriteString("(nothing to plot)\n\n")
		return
	}
	wname := 0
	for _, r := range live {
		if len(r.short) > wname {
			wname = len(r.short)
		}
	}
	for _, r := range live {
		cells := downsampleMax(r.sums, opts.Width)
		fmt.Fprintf(b, "%-*s |", wname, r.short)
		for _, v := range cells {
			b.WriteByte(rampChar(v, scale))
		}
		b.WriteString("|\n")
	}
	if omitted > 0 {
		fmt.Fprintf(b, "(%d more active links omitted — raise -top to see them)\n", omitted)
	}
	fmt.Fprintf(b, "scale: blank=0%s\n\n", legend(scale, denom != 0))
}

func legend(scale int64, isUtil bool) string {
	if scale <= 0 {
		return ""
	}
	top := fmt.Sprintf("%d (peak)", scale)
	if isUtil {
		top = "100% of window"
	}
	return fmt.Sprintf(", '%c'=low .. '%c'=%s",
		sparkRamp[1], sparkRamp[len(sparkRamp)-1], top)
}

func writeQueues(b *strings.Builder, doc *SeriesDoc, opts ReportOpts) {
	type qref struct {
		path string
		d    *SeriesData
		peak int64
	}
	var qs []*qref
	for _, p := range doc.SortedPaths() {
		if !strings.HasSuffix(p, "_depth") && !strings.HasSuffix(p, "/queued") &&
			!strings.HasSuffix(p, "/waiters") {
			continue
		}
		q := &qref{path: p, d: doc.Series[p]}
		for _, v := range q.d.Max {
			if v > q.peak {
				q.peak = v
			}
		}
		qs = append(qs, q)
	}
	sort.SliceStable(qs, func(i, j int) bool {
		if qs[i].peak != qs[j].peak {
			return qs[i].peak > qs[j].peak
		}
		return qs[i].path < qs[j].path
	})
	t := Table{
		Title:   fmt.Sprintf("top %d deepest queues (per-window max depth)", opts.TopK),
		Columns: []string{"queue", "peak", "spark"},
	}
	for i, q := range qs {
		if i >= opts.TopK || q.peak == 0 {
			break
		}
		t.AddRow(q.path, fmt.Sprintf("%d", q.peak), sparkline(q.d.Max, opts.Width))
	}
	writeTableOrNone(b, &t, "no queue depth series in document")
}

// writeSpOccupancy charts each node's firmware-processor occupancy: sp_busy
// and its complement sp_idle are "time"-kind series, which the sampler
// scrapes as per-scrape increments — so each window's Sum is the time spent
// in that state during the window, and occupancy is busy over busy+idle.
// The paper singles out sP occupancy as the key quantity when comparing
// mechanism implementations; this makes its time profile visible per node.
func writeSpOccupancy(b *strings.Builder, doc *SeriesDoc, opts ReportOpts) {
	type spRef struct {
		path string // the sp_busy series path
		busy []int64
		idle []int64
	}
	var sps []*spRef
	for _, p := range doc.SortedPaths() {
		if !strings.HasSuffix(p, "/sp_busy") {
			continue
		}
		idlePath := strings.TrimSuffix(p, "/sp_busy") + "/sp_idle"
		idle := doc.Series[idlePath]
		if idle == nil {
			continue
		}
		sps = append(sps, &spRef{
			path: p,
			busy: doc.Series[p].Sum,
			idle: idle.Sum,
		})
	}
	if len(sps) == 0 {
		return
	}
	t := Table{
		Title:   "sP occupancy by node (busy / (busy+idle) per window)",
		Columns: []string{"sp", "occupancy", "busy", "spark"},
	}
	for _, s := range sps {
		var busyTotal, idleTotal int64
		pcts := make([]int64, len(s.busy))
		for i := range s.busy {
			busyTotal += s.busy[i]
			idleTotal += s.idle[i]
			if span := s.busy[i] + s.idle[i]; span > 0 {
				pcts[i] = s.busy[i] * 100 / span
			}
		}
		t.AddRow(strings.TrimSuffix(s.path, "/sp_busy"),
			PctTenths(busyTotal, busyTotal+idleTotal),
			sim.Time(busyTotal).String(),
			sparkline(pcts, opts.Width))
	}
	b.WriteString(t.String())
	b.WriteByte('\n')
}

// writeStallAttribution charts, window by window, where backpressure went:
// link credit stalls, R-Basic retransmits, and fault-injected drops — the
// latter split by cause, since a probabilistic drop (retransmission noise),
// an outage window (transient partition), and a node death (permanent loss)
// call for very different fixes.
func writeStallAttribution(b *strings.Builder, doc *SeriesDoc, opts ReportOpts) {
	isCounterSum := func(d *SeriesData) []int64 { return d.Sum }
	creditStalls := sumMatching(doc,
		func(p string) bool { return strings.HasSuffix(p, "/credit_stalls") },
		isCounterSum)
	// Retransmit and drop counts are cumulative gauges; chart their
	// per-window increments.
	retrans := sumMatching(doc,
		func(p string) bool { return strings.HasSuffix(p, "fault/retransmits") },
		gaugeWindowDeltas)
	dropSuffix := func(leaf string) []int64 {
		return sumMatching(doc,
			func(p string) bool { return strings.HasPrefix(p, "net/fault/") && strings.HasSuffix(p, leaf) },
			gaugeWindowDeltas)
	}
	probDrops := dropSuffix("/injected_drops")
	outageDrops := dropSuffix("/outage_drops")
	deathDrops := dropSuffix("/death_drops")

	t := Table{
		Title:   "stall attribution by window",
		Columns: []string{"window", "t_start", "credit-stalls", "retransmits", "prob-drops", "outage-drops", "death-drops"},
	}
	any := false
	for i := 0; i < doc.Windows; i++ {
		if creditStalls[i] != 0 || retrans[i] != 0 ||
			probDrops[i] != 0 || outageDrops[i] != 0 || deathDrops[i] != 0 {
			any = true
		}
		t.AddRow(fmt.Sprintf("%d", i), sim.Time(int64(i)*doc.WindowNs).String(),
			fmt.Sprintf("%d", creditStalls[i]),
			fmt.Sprintf("%d", retrans[i]),
			fmt.Sprintf("%d", probDrops[i]),
			fmt.Sprintf("%d", outageDrops[i]),
			fmt.Sprintf("%d", deathDrops[i]))
	}
	if !any {
		fmt.Fprintf(b, "== stall attribution by window ==\n(no stalls, retransmits, or drops recorded)\n\n")
		return
	}
	fmt.Fprintf(b, "%s\nspark credit-stalls: |%s|\nspark retransmits:   |%s|\n\n",
		t.String(), sparkline(creditStalls, opts.Width), sparkline(retrans, opts.Width))
}

func writeMatchTables(b *strings.Builder, doc *SeriesDoc, opts ReportOpts) {
	matched := 0
	for _, p := range doc.SortedPaths() {
		if !strings.Contains(p, opts.Match) {
			continue
		}
		matched++
		d := doc.Series[p]
		t := Table{
			Title:   fmt.Sprintf("series %s (%s)", p, d.Kind),
			Columns: []string{"window", "t_start", "min", "max", "sum", "count"},
		}
		hist := d.Kind == "histogram" && len(d.P50) == doc.Windows
		if hist {
			t.Columns = append(t.Columns, "p50", "p99", "p999")
		}
		for i := 0; i < doc.Windows; i++ {
			row := []string{
				fmt.Sprintf("%d", i), sim.Time(int64(i) * doc.WindowNs).String(),
				fmt.Sprintf("%d", d.Min[i]), fmt.Sprintf("%d", d.Max[i]),
				fmt.Sprintf("%d", d.Sum[i]), fmt.Sprintf("%d", d.Count[i]),
			}
			if hist {
				row = append(row, fmt.Sprintf("%d", d.P50[i]),
					fmt.Sprintf("%d", d.P99[i]), fmt.Sprintf("%d", d.P999[i]))
			}
			t.AddRow(row...)
		}
		fmt.Fprintf(b, "%sspark sum: |%s|\n\n", t.String(), sparkline(d.Sum, opts.Width))
	}
	if matched == 0 {
		fmt.Fprintf(b, "== series matching %q ==\n(no series matched)\n\n", opts.Match)
	}
}

func topK(sel []*seriesRef, k int) []*seriesRef {
	if len(sel) > k {
		return sel[:k]
	}
	return sel
}

func writeTableOrNone(b *strings.Builder, t *Table, none string) {
	if len(t.Rows) == 0 {
		fmt.Fprintf(b, "== %s ==\n(%s)\n\n", t.Title, none)
		return
	}
	b.WriteString(t.String())
	b.WriteByte('\n')
}
