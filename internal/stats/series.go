package stats

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"startvoyager/internal/sim"
)

// This file is the windowed time-series telemetry layer: Series accumulates
// per-window aggregates over fixed simulated-time windows, and Sampler
// scrapes every metric in a Registry on a fixed cadence — driven by the
// engine's out-of-band timer hook, so sampling provably cannot perturb the
// simulation — into a compact, byte-deterministic voyager-series/v1 export.
// Memory is O(series x windows) regardless of message count, which is what
// keeps multi-million-message scale runs diagnosable after the event-level
// trace ring has long since wrapped.

// Window is one fixed-duration aggregation bucket of a Series: the min, max,
// sum, and count of the observations that landed in it. A window with
// Count == 0 recorded nothing; its other fields are zero and meaningless.
type Window struct {
	Min   int64
	Max   int64
	Sum   int64
	Count uint64
}

// Series holds one metric's per-window aggregates. Windows between
// observations are materialized as empty (Count == 0), so index k always
// means the same simulated interval: the sampler's window k.
type Series struct {
	wins []Window
}

// Len returns the number of materialized windows.
func (s *Series) Len() int { return len(s.wins) }

// At returns window i.
func (s *Series) At(i int) Window { return s.wins[i] }

// ensure materializes windows up through idx (gap windows stay empty).
func (s *Series) ensure(idx int) {
	for len(s.wins) <= idx {
		s.wins = append(s.wins, Window{})
	}
}

// add folds one observation into window idx, which must already be
// materialized (see ensure).
//
//voyager:noalloc
func (s *Series) add(idx int, v int64) {
	w := &s.wins[idx]
	if w.Count == 0 || v < w.Min {
		w.Min = v
	}
	if w.Count == 0 || v > w.Max {
		w.Max = v
	}
	w.Sum += v
	w.Count++
}

// scrapesPerWindow is how many times a Sampler scrapes within one window;
// the window width must divide evenly by it. Scraping more than once per
// window lets a gauge's min/max catch intra-window excursions the closing
// scrape would miss.
const scrapesPerWindow = 4

// sampSeries is the scrape state for one registered metric: its reader,
// where its observations accumulate, and the previous-scrape snapshot that
// turns monotonic totals into per-scrape deltas.
type sampSeries struct {
	path string
	rd   reader
	hist *Histogram // the histogram of a histogram metric
	out  *Series

	prevU uint64   // counter: Events at last scrape
	prevT sim.Time // meter/time: nanoseconds at last scrape

	// Histogram entries additionally keep per-window quantile snapshots,
	// computed at window close from the bucket-count deltas accumulated
	// since the previous close.
	prevBuckets []uint64 // per-bucket counts at last scrape
	curBuckets  []uint64 // deltas accumulated in the open window
	p50         []int64  // one element per closed window
	p99         []int64
	p999        []int64
}

// Sampler scrapes every metric registered in a Registry on a fixed cadence
// into per-metric Series, driven by the engine's timer hook — out-of-band
// with respect to the event queue, so an attached sampler changes no
// simulated outcome (the observer-zero-impact test in internal/workload
// holds it to that).
//
// A scrape at boundary t runs before any event scheduled exactly at t
// executes (see Engine.SetTimerHook), so window k captures exactly the
// half-open interval [k*Window, (k+1)*Window) of simulated activity. Per
// scrape, each metric contributes one observation to the window the scrape
// closes over: gauges their instantaneous value, counters their event-count
// delta, meters their busy-time delta, time metrics their nanosecond delta,
// and histograms their observation-count delta. A window's Sum is therefore
// the metric's total movement across the window and Max the burstiest scrape
// interval within it. Histograms also record p50/p99/p999 of the samples
// that arrived within each window (nearest-rank over bucket deltas; values
// are bucket upper bounds, with the histogram's running max standing in for
// the unbounded overflow bucket).
//
// The scrape path is //voyager:noalloc-marked and allocation-free; the
// window arrays grow outside it, in ensure.
type Sampler struct {
	eng    *sim.Engine
	window sim.Time
	step   sim.Time

	series []*sampSeries
	tickFn func(sim.Time)

	lastScrape sim.Time
	closedTo   int // windows [0, closedTo) have quantile snapshots
	finished   bool
}

// NewSampler snapshots reg's current metric set (sorted by path), resolving
// each path to its reader once, and returns a sampler aggregating it into
// windows of the given simulated-time width, scraped four times per window.
// Metrics registered after NewSampler are not scraped. Call Start to arm
// it, Finish after the run, then Doc/WriteJSON to export.
func NewSampler(eng *sim.Engine, reg *Registry, window sim.Time) *Sampler {
	if window <= 0 {
		panic(fmt.Sprintf("stats: sampler window %d, must be > 0", int64(window)))
	}
	if window%scrapesPerWindow != 0 {
		panic(fmt.Sprintf("stats: sampler window %d not divisible by %d scrapes",
			int64(window), scrapesPerWindow))
	}
	s := &Sampler{eng: eng, window: window, step: window / scrapesPerWindow}
	ms := reg.metrics()
	s.series = make([]*sampSeries, 0, len(ms))
	for _, m := range ms {
		ss := &sampSeries{path: m.path, rd: m.rd, out: &Series{}}
		if m.rd.row.kind == kindHist {
			ss.hist = m.rd.hist()
			n := ss.hist.NumBuckets()
			ss.prevBuckets = make([]uint64, n)
			ss.curBuckets = make([]uint64, n)
		}
		s.series = append(s.series, ss)
	}
	s.tickFn = s.tick
	return s
}

// Window returns the configured window width.
func (s *Sampler) Window() sim.Time { return s.window }

// Windows returns the number of materialized windows so far.
func (s *Sampler) Windows() int {
	if len(s.series) == 0 {
		return 0
	}
	return s.series[0].out.Len()
}

// Start arms the engine timer hook at the next scrape boundary. The sampler
// owns the engine's single hook from Start until Finish.
func (s *Sampler) Start() {
	next := (s.eng.Now()/s.step + 1) * s.step
	s.eng.SetTimerHook(next, s.tickFn)
}

// tick is the timer-hook callback: one scrape, a window close when the
// boundary is a window edge, re-arm. Growth (ensure) happens here, outside
// the //voyager:noalloc-marked scrape itself; within materialized windows
// the whole tick is allocation-free, which the AllocsPerRun pin in
// series_test.go enforces.
func (s *Sampler) tick(at sim.Time) {
	idx := int((at - 1) / s.window)
	s.ensure(idx)
	s.scrape(at, idx)
	s.lastScrape = at
	if at%s.window == 0 {
		s.closeWindow(idx)
	}
	s.eng.SetTimerHook(at+s.step, s.tickFn)
}

// ensure materializes windows through idx on every per-metric series.
func (s *Sampler) ensure(idx int) {
	for _, ss := range s.series {
		ss.out.ensure(idx)
		if ss.hist != nil {
			ss.p50 = ensureI64(ss.p50, idx+1)
			ss.p99 = ensureI64(ss.p99, idx+1)
			ss.p999 = ensureI64(ss.p999, idx+1)
		}
	}
}

func ensureI64(s []int64, n int) []int64 {
	for len(s) < n {
		s = append(s, 0)
	}
	return s
}

// scrape folds one observation per metric into window idx.
//
//voyager:noalloc
func (s *Sampler) scrape(at sim.Time, idx int) {
	for _, ss := range s.series {
		var v int64
		switch ss.rd.row.kind {
		case kindGauge:
			v = ss.rd.value()
		case kindCounter:
			cur := ss.rd.counter().Events
			v = int64(cur - ss.prevU)
			ss.prevU = cur
		case kindMeter:
			cur := ss.rd.meter().BusyTime()
			v = int64(cur - ss.prevT)
			ss.prevT = cur
		case kindTime:
			cur := sim.Time(ss.rd.value())
			v = int64(cur - ss.prevT)
			ss.prevT = cur
		case kindHist:
			var delta uint64
			for i, c := range ss.hist.counts {
				d := c - ss.prevBuckets[i]
				ss.curBuckets[i] += d
				ss.prevBuckets[i] = c
				delta += d
			}
			v = int64(delta)
		}
		ss.out.add(idx, v)
	}
}

// closeWindow snapshots per-window histogram quantiles from the bucket
// deltas accumulated since the previous close, then resets the accumulators.
//
//voyager:noalloc
func (s *Sampler) closeWindow(idx int) {
	for _, ss := range s.series {
		h := ss.hist
		if h == nil {
			continue
		}
		var total uint64
		for _, c := range ss.curBuckets {
			total += c
		}
		ss.p50[idx] = bucketQuantile(h, ss.curBuckets, total, 500)
		ss.p99[idx] = bucketQuantile(h, ss.curBuckets, total, 990)
		ss.p999[idx] = bucketQuantile(h, ss.curBuckets, total, 999)
		for i := range ss.curBuckets {
			ss.curBuckets[i] = 0
		}
	}
	s.closedTo = idx + 1
}

// bucketQuantile returns the nearest-rank q/1000 quantile over one window's
// bucket-count deltas. The reported value is the matched bucket's upper
// bound; the unbounded overflow bucket reports the histogram's running max
// (the tightest deterministic bound available without storing samples).
//
//voyager:noalloc
func bucketQuantile(h *Histogram, deltas []uint64, total uint64, q uint64) int64 {
	if total == 0 {
		return 0
	}
	rank := (total*q + 999) / 1000
	var cum uint64
	for i, c := range deltas {
		cum += c
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}

// Finish completes the export after the run: if simulated time ended
// strictly past the last scrape boundary, the tail interval is scraped into
// its (partial) window; any window without a quantile snapshot is closed;
// the engine hook is disarmed. Observations stamped exactly on the final
// boundary belong to the next window (which the run never entered) and are
// deliberately not folded back. Finish is idempotent.
func (s *Sampler) Finish() {
	if s.finished {
		return
	}
	s.finished = true
	s.eng.SetTimerHook(0, nil)
	now := s.eng.Now()
	if now > s.lastScrape {
		idx := int((now - 1) / s.window)
		s.ensure(idx)
		s.scrape(now, idx)
		s.lastScrape = now
	}
	for s.closedTo < s.Windows() {
		s.closeWindow(s.closedTo)
	}
}

// SeriesData is one metric's exported time series: columnar per-window
// aggregate arrays, all of length SeriesDoc.Windows, plus per-window
// quantile snapshots for histograms.
type SeriesData struct {
	Kind  string   `json:"kind"`
	Min   []int64  `json:"min"`
	Max   []int64  `json:"max"`
	Sum   []int64  `json:"sum"`
	Count []uint64 `json:"count"`
	P50   []int64  `json:"p50,omitempty"`
	P99   []int64  `json:"p99,omitempty"`
	P999  []int64  `json:"p999,omitempty"`
}

// SeriesDoc is the voyager-series/v1 document: the parsed form read by
// voyager-stats and the exact shape Sampler.WriteJSON marshals.
type SeriesDoc struct {
	Schema   string                 `json:"schema"`
	Run      *RunMeta               `json:"run,omitempty"`
	WindowNs int64                  `json:"window_ns"`
	Scrapes  int                    `json:"scrapes_per_window"`
	Windows  int                    `json:"windows"`
	Series   map[string]*SeriesData `json:"series"`
}

// SeriesSchema is the series export's schema identifier.
const SeriesSchema = "voyager-series/v1"

var kindNames = [...]string{
	kindGauge: "gauge", kindCounter: "counter", kindMeter: "meter",
	kindTime: "time", kindHist: "histogram",
}

// Doc assembles the export document. Call Finish first; meta may be nil.
func (s *Sampler) Doc(meta *RunMeta) *SeriesDoc {
	if !s.finished {
		panic("stats: Sampler.Doc before Finish")
	}
	n := s.Windows()
	doc := &SeriesDoc{
		Schema:   SeriesSchema,
		Run:      meta,
		WindowNs: int64(s.window),
		Scrapes:  scrapesPerWindow,
		Windows:  n,
		Series:   make(map[string]*SeriesData, len(s.series)),
	}
	for _, ss := range s.series {
		d := &SeriesData{
			Kind:  kindNames[ss.rd.row.kind],
			Min:   make([]int64, n),
			Max:   make([]int64, n),
			Sum:   make([]int64, n),
			Count: make([]uint64, n),
		}
		for i := 0; i < n; i++ {
			w := ss.out.At(i)
			d.Min[i], d.Max[i], d.Sum[i], d.Count[i] = w.Min, w.Max, w.Sum, w.Count
		}
		if ss.hist != nil {
			d.P50, d.P99, d.P999 = ss.p50[:n:n], ss.p99[:n:n], ss.p999[:n:n]
		}
		doc.Series[ss.path] = d
	}
	return doc
}

// WriteJSON writes the voyager-series/v1 export: one compact JSON document,
// byte-deterministic for a given sampler state (sorted object keys via
// encoding/json, integer values only). Call Finish first; meta may be nil.
func (s *Sampler) WriteJSON(w io.Writer, meta *RunMeta) error {
	out, err := json.Marshal(s.Doc(meta))
	if err != nil {
		return err
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}

// The refusals of ParseSeries: every error it returns wraps one of them.
var (
	// ErrSeriesJSON reports input that does not decode as a series
	// document.
	ErrSeriesJSON = errors.New("stats: series document does not decode")
	// ErrSeriesSchema reports a document of another schema.
	ErrSeriesSchema = errors.New("stats: not a " + SeriesSchema + " document")
	// ErrNullSeries reports a series document whose series map holds a null
	// entry.
	ErrNullSeries = errors.New("stats: null series entry")
	// ErrSeriesWindows reports a window count the series arrays do not bear
	// out: a negative count, windows with no series to hold them, or a
	// series whose arrays are not one entry per window (the quantile arrays
	// are all absent or all present).
	ErrSeriesWindows = errors.New("stats: window count disagrees with the series")
)

// ParseSeries reads and validates a voyager-series/v1 document. A document
// it accepts renders through WriteReport.
func ParseSeries(r io.Reader) (*SeriesDoc, error) {
	var doc SeriesDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSeriesJSON, err)
	}
	if doc.Schema != SeriesSchema {
		return nil, fmt.Errorf("%w: schema %q", ErrSeriesSchema, doc.Schema)
	}
	if doc.Windows < 0 || doc.Windows > 0 && len(doc.Series) == 0 {
		return nil, fmt.Errorf("%w: %d windows in %d series", ErrSeriesWindows, doc.Windows, len(doc.Series))
	}
	for _, p := range doc.SortedPaths() {
		d := doc.Series[p]
		if d == nil {
			return nil, fmt.Errorf("%w: %q", ErrNullSeries, p)
		}
		if !d.holds(doc.Windows) {
			return nil, fmt.Errorf("%w: series %q does not hold %d windows", ErrSeriesWindows, p, doc.Windows)
		}
	}
	return &doc, nil
}

// holds reports whether every array of d has one entry per window, the
// quantile arrays either all absent or all present.
func (d *SeriesData) holds(windows int) bool {
	for _, n := range []int{len(d.Min), len(d.Max), len(d.Sum), len(d.Count)} {
		if n != windows {
			return false
		}
	}
	q := len(d.P50)
	return (q == 0 || q == windows) && len(d.P99) == q && len(d.P999) == q
}

// SortedPaths returns the document's series paths in sorted order.
func (d *SeriesDoc) SortedPaths() []string {
	out := make([]string, 0, len(d.Series))
	for p := range d.Series {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
