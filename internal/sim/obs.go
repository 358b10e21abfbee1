package sim

import "strconv"

// This file is the engine-side half of the observability layer: a single
// Observer hook through which every instrumented component emits structured
// events (spans, instants, counter samples). Emission is opt-in — with no
// observer installed every hook is a nil-check no-op, so instrumentation has
// zero effect on simulated timing and near-zero wall-clock cost.
//
// All timestamps are simulated time (never wall clock) and span ids come
// from a deterministic engine counter, so identically-seeded runs produce
// byte-identical traces.

// fieldKind selects how a Field's value renders.
type fieldKind uint8

const (
	fieldStr fieldKind = iota
	fieldInt
	fieldHex
)

// Field is one key/value attribute attached to an observed event. Values
// are stored unformatted; rendering happens only at export time, keeping
// emission cheap.
type Field struct {
	Key  string
	kind fieldKind
	s    string
	i    int64
}

// Str returns a string-valued field.
func Str(key, val string) Field { return Field{Key: key, kind: fieldStr, s: val} }

// I64 returns an integer-valued field.
func I64(key string, v int64) Field { return Field{Key: key, kind: fieldInt, i: v} }

// Int is I64 for int values.
func Int(key string, v int) Field { return I64(key, int64(v)) }

// Hex returns an integer field rendered in hexadecimal (addresses).
func Hex(key string, v uint64) Field { return Field{Key: key, kind: fieldHex, i: int64(v)} }

// Int64 returns the field's integer value when it holds one (I64/Int/Hex
// fields). Analyzers use it to read numeric attributes without re-parsing
// the rendered string.
func (f Field) Int64() (int64, bool) {
	if f.kind == fieldInt || f.kind == fieldHex {
		return f.i, true
	}
	return 0, false
}

// Value renders the field's value deterministically.
func (f Field) Value() string {
	switch f.kind {
	case fieldInt:
		return strconv.FormatInt(f.i, 10)
	case fieldHex:
		return "0x" + strconv.FormatUint(uint64(f.i), 16)
	default:
		return f.s
	}
}

// Observer receives instrumentation events from the engine. Implementations
// must not schedule events or otherwise perturb the simulation. The
// (node, component) pair names the track an event belongs to.
type Observer interface {
	// SpanBegin opens span id on track (node, component).
	SpanBegin(at Time, node int, component, name string, id uint64, fields []Field)
	// SpanEnd closes span id opened on the same track.
	SpanEnd(at Time, node int, component string, id uint64, fields []Field)
	// Instant records a point event.
	Instant(at Time, node int, component, name string, fields []Field)
	// CounterSample records the current value of a named quantity (queue
	// depth, occupancy count) on the track.
	CounterSample(at Time, node int, component, name string, value int64)
}

// SetObserver installs (or, with nil, removes) the instrumentation sink.
func (e *Engine) SetObserver(o Observer) { e.obs = o }

// Observed reports whether an observer is installed. Components guard
// expensive field construction on it.
func (e *Engine) Observed() bool { return e.obs != nil }

// Span is an open span handle. The zero Span is inert: End on it is a no-op,
// so emitters need no observer check around the End call.
type Span struct {
	e         *Engine
	id        uint64
	node      int
	component string
}

// BeginSpan opens a span on track (node, component) at the current time and
// returns its handle. With no observer installed it returns the inert zero
// Span.
func (e *Engine) BeginSpan(node int, component, name string, fields ...Field) Span {
	if e.obs == nil {
		return Span{}
	}
	e.spanSeq++
	e.obs.SpanBegin(e.now, node, component, name, e.spanSeq, fields)
	return Span{e: e, id: e.spanSeq, node: node, component: component}
}

// End closes the span at the engine's current time.
func (s Span) End(fields ...Field) {
	if s.e == nil || s.e.obs == nil {
		return
	}
	s.e.obs.SpanEnd(s.e.now, s.node, s.component, s.id, fields)
}

// Active reports whether the span was actually opened (observer installed).
func (s Span) Active() bool { return s.e != nil }

// Instant emits a point event on track (node, component).
func (e *Engine) Instant(node int, component, name string, fields ...Field) {
	if e.obs == nil {
		return
	}
	e.obs.Instant(e.now, node, component, name, fields)
}

// Sample emits the current value of a named counter (queue depth, in-flight
// count) on track (node, component).
func (e *Engine) Sample(node int, component, name string, value int64) {
	if e.obs == nil {
		return
	}
	e.obs.CounterSample(e.now, node, component, name, value)
}

// MsgTag is the causal trace context carried alongside one message through
// every layer it crosses (aP slot, TX queue, frame, fabric packet, RX queue,
// sP dispatch). It models the sideband trace tag of a hardware trace unit:
// it rides next to the data, is never encoded on the wire, and therefore
// survives payload corruption.
//
// ID is the per-engine message id (0 = untraced: no observer was installed
// when the message entered the system, and every emission keyed on it is
// skipped). Attempt distinguishes retransmissions of the same logical
// message (0 or 1 = first send). Parent links a derived message — an ACK, a
// DMA chunk, a notification — to the message whose handling caused it.
type MsgTag struct {
	ID      uint64
	Attempt uint32
	Parent  uint64
}

// Traced reports whether the tag identifies a traced message.
//
//voyager:noalloc
func (t MsgTag) Traced() bool { return t.ID != 0 }

// NewMsgID allocates the next deterministic message id, or 0 when no
// observer is installed (untraced runs pay nothing and the counter stays
// untouched, keeping traced and untraced runs causally identical).
func (e *Engine) NewMsgID() uint64 {
	if e.obs == nil {
		return 0
	}
	e.msgSeq++
	return e.msgSeq
}
