// Package trace captures the machine's structured observability stream: it
// implements sim.Observer with a bounded ring buffer of typed events
// (spans, instants, counter samples) that can be filtered, dumped as text,
// or exported as a Perfetto/Chrome trace-event file (see perfetto.go).
// Tracing is opt-in — install a Buffer with sim.Engine.SetObserver — and has
// no effect on simulated timing.
package trace

import (
	"fmt"
	"strings"

	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// Kind is the type of one trace event.
type Kind uint8

// Event kinds.
const (
	// SpanBegin opens a span (a duration on one node×component track).
	SpanBegin Kind = iota
	// SpanEnd closes the span with the matching id.
	SpanEnd
	// Instant is a point event.
	Instant
	// Counter is a sampled value of a named quantity.
	Counter
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case SpanBegin:
		return "B"
	case SpanEnd:
		return "E"
	case Instant:
		return "I"
	case Counter:
		return "C"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one structured trace record. Payload lives in typed Fields, not
// preformatted strings, so exporters and tests can consume it directly.
type Event struct {
	At        sim.Time
	Node      int
	Component string // track within the node: "bus", "aP", "fw", ...
	Kind      Kind
	Name      string // span/instant/counter name ("" on SpanEnd)
	Span      uint64 // span id linking Begin/End pairs (0 otherwise)
	Value     int64  // Counter sample value
	Fields    []sim.Field
}

// String renders the event as one line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s n%d %-9s %s", e.At, e.Node, e.Component, e.Kind)
	if e.Name != "" {
		fmt.Fprintf(&b, " %-14s", e.Name)
	}
	if e.Span != 0 {
		fmt.Fprintf(&b, " #%d", e.Span)
	}
	if e.Kind == Counter {
		fmt.Fprintf(&b, " =%d", e.Value)
	}
	for _, f := range e.Fields {
		fmt.Fprintf(&b, " %s=%s", f.Key, f.Value())
	}
	return b.String()
}

// Stats summarizes a buffer's capture so truncated traces are never
// mistaken for complete ones.
type Stats struct {
	Captured uint64 // events offered to the buffer
	Retained uint64 // events currently held
	Dropped  uint64 // events that fell off the ring
}

// Buffer is a bounded ring of events implementing sim.Observer (older
// events are dropped first).
type Buffer struct {
	cap     int
	events  []Event
	start   int // ring head when full
	dropped uint64
}

// New creates a buffer holding up to capacity events. The buffer must still
// be installed with an engine's SetObserver (or use Attach).
func New(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Buffer{cap: capacity}
}

// Attach creates a buffer and installs it as eng's observer.
func Attach(eng *sim.Engine, capacity int) *Buffer {
	b := New(capacity)
	eng.SetObserver(b)
	return b
}

func (b *Buffer) add(e Event) {
	if len(b.events) < b.cap {
		b.events = append(b.events, e)
		return
	}
	b.events[b.start] = e
	b.start = (b.start + 1) % b.cap
	b.dropped++
}

// SpanBegin implements sim.Observer.
func (b *Buffer) SpanBegin(at sim.Time, node int, component, name string, id uint64, fields []sim.Field) {
	b.add(Event{At: at, Node: node, Component: component, Kind: SpanBegin,
		Name: name, Span: id, Fields: fields})
}

// SpanEnd implements sim.Observer.
func (b *Buffer) SpanEnd(at sim.Time, node int, component string, id uint64, fields []sim.Field) {
	b.add(Event{At: at, Node: node, Component: component, Kind: SpanEnd,
		Span: id, Fields: fields})
}

// Instant implements sim.Observer.
func (b *Buffer) Instant(at sim.Time, node int, component, name string, fields []sim.Field) {
	b.add(Event{At: at, Node: node, Component: component, Kind: Instant,
		Name: name, Fields: fields})
}

// CounterSample implements sim.Observer.
func (b *Buffer) CounterSample(at sim.Time, node int, component, name string, value int64) {
	b.add(Event{At: at, Node: node, Component: component, Kind: Counter,
		Name: name, Value: value})
}

// Stats reports capture totals, including how many events were dropped —
// callers must check Dropped before treating a trace as complete.
func (b *Buffer) Stats() Stats {
	retained := uint64(len(b.events))
	return Stats{Captured: retained + b.dropped, Retained: retained, Dropped: b.dropped}
}

// bufferMetrics is the ring's metric table: its capture and drop totals, so
// a truncated trace is visible in the metrics artifact.
var bufferMetrics = stats.NewMetrics(
	stats.GaugeOf("dropped", func(b *Buffer) int64 { return int64(b.Stats().Dropped) }),
	stats.GaugeOf("captured", func(b *Buffer) int64 { return int64(b.Stats().Captured) }),
)

// RegisterMetrics registers the ring's capture and drop totals under r.
func (b *Buffer) RegisterMetrics(r *stats.Registry) { bufferMetrics.Register(r, b) }

// Events returns retained events in emission order.
func (b *Buffer) Events() []Event {
	out := make([]Event, 0, len(b.events))
	out = append(out, b.events[b.start:]...)
	out = append(out, b.events[:b.start]...)
	return out
}
