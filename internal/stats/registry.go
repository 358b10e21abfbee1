package stats

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"startvoyager/internal/sim"
)

// Registry is a hierarchical metrics registry. Components register their
// counters, meters, gauges, and histograms at construction under a
// slash-separated path ("node0/bus/transactions"); the whole tree dumps as
// one stable machine-readable JSON document.
//
// Registration stores one record per component, not one per value: each
// component type declares its metrics once, in a package-level table of
// readers over that type (Metrics), and an instance registers the (table,
// pointer) pair. A set of like members (a fabric's links, CTRL's queues)
// registers once as a Family, counted and named by functions of their
// owner. So a registry costs memory in proportion to its components,
// whatever their metric count. Reads go through the readers, so a dump
// always reflects live values, and nothing is sampled during simulation.
//
// Path strings are never stored: Paths, ReadGauge, WriteJSON and NewSampler
// render them on demand from the record names, member names and row names.
// A Registry value is one scope of the tree: the root from NewRegistry, or
// a Child.
//
// Dumps are deterministic: paths are emitted in sorted order and every value
// is an integer (simulated-time nanoseconds, counts, bytes), so two
// identically-seeded runs produce byte-identical files.
type Registry struct {
	name string // path segment; "" at the root and for an unnamed scope
	tab  *table // the metrics this scope serves, or nil
	src  any    // what tab reads: a component, or a family's owner
	// kids are the child scopes in shortlex order (length, then bytes), so
	// a binary search finds a child and numbered siblings created in order
	// (node0, node1, ...) append at the end. Unnamed scopes, which hold a
	// scope's second and later tables, sort first.
	kids []*Registry
}

// kind discriminates the metric kinds. Each kind's reader returns its own
// type (rather than a value boxed into interface{}), so the telemetry
// Sampler can scrape every metric without boxing — the precondition for an
// allocation-free scrape path.
type kind uint8

const (
	kindGauge kind = iota
	kindCounter
	kindMeter
	kindTime
	kindHist
)

// row is one metric of a table: its name and its reader. Readers take the
// value they read and, in a gauge family, the member index. Exactly one
// reader is set, according to kind (value serves gauges and times).
type row struct {
	name    string // "" names the scope or member itself
	kind    kind
	value   func(x any, i int) int64
	counter func(x any, i int) *Counter
	meter   func(x any, i int) *Meter
	hist    func(x any, i int) *Histogram
}

// table is the untyped form of a Metrics or Family table. A family table also
// counts and names the members of the owner it reads; the rows of a family
// of components read member(owner, i), those of a gauge family the owner
// with the member index.
type table struct {
	rows   []row
	size   func(x any) int
	name   func(x any, i int) string
	member func(x any, i int) any
}

// Metric is one row of a component type's metric table: a name and a reader
// over *T. Build rows with GaugeOf, TimeOf, CounterOf, MeterOf and
// HistogramOf.
type Metric[T any] struct{ r row }

// GaugeOf declares an integer metric read at dump time.
func GaugeOf[T any](name string, read func(*T) int64) Metric[T] {
	return Metric[T]{row{name: name, kind: kindGauge, value: func(x any, _ int) int64 { return read(x.(*T)) }}}
}

// TimeOf declares a simulated-time quantity (resource busy time, latency
// sum) read at dump time, reported in nanoseconds.
func TimeOf[T any](name string, read func(*T) sim.Time) Metric[T] {
	return Metric[T]{row{name: name, kind: kindTime, value: func(x any, _ int) int64 { return int64(read(x.(*T))) }}}
}

// CounterOf declares an event/amount counter.
func CounterOf[T any](name string, read func(*T) *Counter) Metric[T] {
	return Metric[T]{row{name: name, kind: kindCounter, counter: func(x any, _ int) *Counter { return read(x.(*T)) }}}
}

// MeterOf declares a busy-time meter; the dump reports accumulated busy
// nanoseconds and completed spans.
func MeterOf[T any](name string, read func(*T) *Meter) Metric[T] {
	return Metric[T]{row{name: name, kind: kindMeter, meter: func(x any, _ int) *Meter { return read(x.(*T)) }}}
}

// HistogramOf declares a fixed-bucket histogram.
func HistogramOf[T any](name string, read func(*T) *Histogram) Metric[T] {
	return Metric[T]{row{name: name, kind: kindHist, hist: func(x any, _ int) *Histogram { return read(x.(*T)) }}}
}

// Metrics is the metric table of a component type, declared once per type in
// a package-level variable and never changed.
type Metrics[T any] struct{ t table }

// NewMetrics returns the table of rows. Row names are path segments: it panics
// on an empty name or one holding "/", so a bad name in a package-level
// table fails at program start, and registering a table checks nothing.
func NewMetrics[T any](rows ...Metric[T]) *Metrics[T] {
	t := &Metrics[T]{}
	for _, m := range rows {
		checkName(m.r.name)
		t.t.rows = append(t.t.rows, m.r)
	}
	return t
}

// Register registers x's metrics in scope r: one record, whatever the
// table's length.
func (t *Metrics[T]) Register(r *Registry, x *T) { r.hold(&t.t, x) }

// Family is the metric table of a set of like members owned by a component
// of type S — a fabric's links, CTRL's queues — declared once per type like
// Metrics. An owner registers all its members as one record; their number and
// names are read from the owner when paths are rendered, so the owner must
// not change its membership after registering.
type Family[S any] struct{ t table }

// NewFamily declares a family of members of type T, each serving the rows of
// members: an owner x has size(x) members, member i is named name(x, i) and
// read through member(x, i), and its metrics sit at <member name>/<row>.
func NewFamily[S, T any](members *Metrics[T], size func(*S) int, name func(*S, int) string,
	member func(*S, int) *T) *Family[S] {
	return &Family[S]{table{rows: members.t.rows,
		size:   func(x any) int { return size(x.(*S)) },
		name:   func(x any, i int) string { return name(x.(*S), i) },
		member: func(x any, i int) any { return member(x.(*S), i) },
	}}
}

// NewGaugeFamily declares a family whose members are single gauges: an owner
// x has size(x) of them, gauge i is named name(x, i) and reads read(x, i).
func NewGaugeFamily[S any](size func(*S) int, name func(*S, int) string, read func(*S, int) int64) *Family[S] {
	return &Family[S]{table{
		rows: []row{{kind: kindGauge, value: func(x any, i int) int64 { return read(x.(*S), i) }}},
		size: func(x any) int { return size(x.(*S)) },
		name: func(x any, i int) string { return name(x.(*S), i) },
	}}
}

// Register registers every member of x in scope r as one record.
func (f *Family[S]) Register(r *Registry, x *S) { r.hold(&f.t, x) }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Child returns the scope named name under r, creating it on first use.
func (r *Registry) Child(name string) *Registry {
	checkName(name)
	i, found := r.find(name)
	if !found {
		r.kids = slices.Insert(r.kids, i, &Registry{name: name})
	}
	return r.kids[i]
}

// hold makes r serve t over x. A scope that already serves a table holds the
// next one in an unnamed child, which adds no path segment.
func (r *Registry) hold(t *table, x any) {
	if r.tab == nil {
		r.tab, r.src = t, x
		return
	}
	r.kids = slices.Insert(r.kids, 0, &Registry{tab: t, src: x})
}

// find returns the index of r's child named name, or where to insert it.
func (r *Registry) find(name string) (int, bool) {
	return slices.BinarySearchFunc(r.kids, name, func(k *Registry, name string) int {
		if c := cmp.Compare(len(k.name), len(name)); c != 0 {
			return c
		}
		return strings.Compare(k.name, name)
	})
}

func checkName(name string) {
	if name == "" || strings.Contains(name, "/") {
		panic(fmt.Sprintf("stats: bad registry name %q", name))
	}
}

// reader is one metric resolved to its source: a table row and the value
// and member index it reads.
type reader struct {
	row *row
	src any
	i   int
}

// value reads a gauge or time metric.
//
//voyager:noalloc
func (rd reader) value() int64 { return rd.row.value(rd.src, rd.i) }

// counter resolves a counter metric.
//
//voyager:noalloc
func (rd reader) counter() *Counter { return rd.row.counter(rd.src, rd.i) }

// meter resolves a meter metric.
//
//voyager:noalloc
func (rd reader) meter() *Meter { return rd.row.meter(rd.src, rd.i) }

// hist resolves a histogram metric.
func (rd reader) hist() *Histogram { return rd.row.hist(rd.src, rd.i) }

// metric is one rendered path and its reader.
type metric struct {
	path string
	rd   reader
}

// metrics renders every registered metric, sorted by path. Two metrics on
// one path are a registration bug, reported by panic.
func (r *Registry) metrics() []metric {
	var out []metric
	r.render("", "", &out)
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	for i := 1; i < len(out); i++ {
		if out[i].path == out[i-1].path {
			panic("stats: duplicate metric " + out[i].path)
		}
	}
	return out
}

// render appends the metrics of r, whose path is prefix, and of its
// children. A non-empty want skips every member and child whose metrics
// cannot include the path want.
func (r *Registry) render(prefix, want string, out *[]metric) {
	if t := r.tab; t != nil && t.size == nil {
		t.renderRows(prefix, r.src, 0, out)
	} else if t != nil {
		for i, n := 0, t.size(r.src); i < n; i++ {
			name := t.name(r.src, i)
			checkName(name)
			p := join(prefix, name)
			if !leads(p, want) {
				continue
			}
			x, idx := r.src, i
			if t.member != nil {
				x, idx = t.member(r.src, i), 0
			}
			t.renderRows(p, x, idx, out)
		}
	}
	for _, k := range r.kids {
		if p := join(prefix, k.name); leads(p, want) {
			k.render(p, want, out)
		}
	}
}

// leads reports whether the metrics under path p can include the path want
// ("" wants every path).
func leads(p, want string) bool {
	return want == "" || p == "" || strings.HasPrefix(want, p) && (len(want) == len(p) || want[len(p)] == '/')
}

func (t *table) renderRows(prefix string, x any, i int, out *[]metric) {
	for j := range t.rows {
		rw := &t.rows[j]
		*out = append(*out, metric{join(prefix, rw.name), reader{rw, x, i}})
	}
}

// join appends segment name to path prefix; an empty name adds none.
func join(prefix, name string) string {
	switch {
	case name == "":
		return prefix
	case prefix == "":
		return name
	}
	return prefix + "/" + name
}

// ReadGauge reads the current value of the gauge registered at the full
// path (e.g. "net/fault/injected_drops"). The second result is false when
// no gauge lives there. It lets invariant checkers sample individual
// counters point-wise instead of serializing the whole registry: it renders
// only the scopes on the way to path (and the member names of a family on
// the way, which is as many as the family has members).
func (r *Registry) ReadGauge(path string) (int64, bool) {
	if path == "" {
		return 0, false
	}
	var ms []metric
	r.render("", path, &ms)
	for _, m := range ms {
		if m.path == path && m.rd.row.kind == kindGauge {
			return m.rd.value(), true
		}
	}
	return 0, false
}

// Paths returns every registered metric path, sorted.
func (r *Registry) Paths() []string {
	ms := r.metrics()
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.path
	}
	return out
}

// read renders one metric in the voyager-metrics/v1 value shape.
func (rd reader) read() interface{} {
	switch rd.row.kind {
	case kindGauge:
		return map[string]interface{}{"kind": "gauge", "value": rd.value()}
	case kindCounter:
		c := rd.counter()
		return map[string]interface{}{"kind": "counter", "events": c.Events, "amount": c.Amount}
	case kindMeter:
		m := rd.meter()
		return map[string]interface{}{
			"kind": "meter", "busy_ns": int64(m.BusyTime()), "spans": m.Spans(),
		}
	case kindTime:
		return map[string]interface{}{"kind": "time", "ns": rd.value()}
	default:
		h := rd.hist()
		buckets := make([]interface{}, h.NumBuckets())
		for i := range buckets {
			bound, count, bounded := h.Bucket(i)
			le := interface{}("+inf")
			if bounded {
				le = bound
			}
			buckets[i] = map[string]interface{}{"le": le, "count": count}
		}
		return map[string]interface{}{
			"kind": "histogram", "count": h.Count(), "sum": h.Sum(),
			"min": h.Min(), "max": h.Max(), "buckets": buckets,
		}
	}
}

// RunMeta is the self-describing header attached to exported artifacts: who
// produced the run and under what configuration, so a metrics or series file
// found on its own (a CI artifact, an old experiment directory) identifies
// its run without the command line that made it.
type RunMeta struct {
	Tool      string `json:"tool"`
	Mechanism string `json:"mechanism,omitempty"`
	Nodes     int    `json:"nodes"`
	Seed      uint64 `json:"seed"`
	FaultPlan string `json:"fault_plan,omitempty"`
	SimTimeNs int64  `json:"sim_time_ns"`
}

// WriteJSON writes the whole registry as one indented JSON document, with
// now recorded as the dump's simulated timestamp and, when a non-nil meta
// is given (at most one), that run-metadata header. Output is byte-stable
// for a given registry state (sorted paths, integer values only).
func (r *Registry) WriteJSON(w io.Writer, now sim.Time, meta ...*RunMeta) error {
	ms := r.metrics()
	metrics := make(map[string]interface{}, len(ms))
	for _, m := range ms {
		metrics[m.path] = m.rd.read()
	}
	doc := map[string]interface{}{
		"schema":      "voyager-metrics/v1",
		"sim_time_ns": int64(now),
		"metrics":     metrics,
	}
	if len(meta) > 0 && meta[0] != nil {
		doc["run"] = meta[0]
	}
	// encoding/json sorts map keys, which is exactly the stability we want.
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}
