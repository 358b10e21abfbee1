package chaos

import (
	"startvoyager/internal/sim"
	"startvoyager/internal/trace"
)

// tapCap bounds the per-cell lifecycle-event tap. The tap retains only
// message-lifecycle instants — storage scales with traffic, not budget — so
// the cap is a guard against pathological cells; hitting it is itself
// reported as a telescoping finding.
const tapCap = 1 << 20

// lifecycleTap is a sim.Observer that retains only message-lifecycle
// instants — the events trace.AnalyzePaths consumes (Instant kind, nonzero
// I64 "msg" field). Firmware polling emits tens of span events per simulated
// microsecond whether or not traffic flows, so a general ring sized for a
// chaos cell's full budget would need millions of slots; filtering at the
// observer instead keeps memory proportional to actual message traffic and
// makes the telescoping oracle immune to ring truncation.
type lifecycleTap struct {
	events  []trace.Event
	dropped uint64
}

func attachLifecycleTap(e *sim.Engine) *lifecycleTap {
	t := &lifecycleTap{}
	e.SetObserver(t)
	return t
}

// Instant implements sim.Observer, keeping only events with a message id.
func (t *lifecycleTap) Instant(at sim.Time, node int, component, name string, fields []sim.Field) {
	if !sim.MsgTagOf(fields).Traced() {
		return
	}
	if len(t.events) >= tapCap {
		t.dropped++
		return
	}
	t.events = append(t.events, trace.Event{
		At: at, Node: node, Component: component, Kind: trace.Instant,
		Name: name, Fields: fields,
	})
}

// SpanBegin implements sim.Observer (spans carry no message ids; discard).
func (t *lifecycleTap) SpanBegin(sim.Time, int, string, string, uint64, []sim.Field) {}

// SpanEnd implements sim.Observer.
func (t *lifecycleTap) SpanEnd(sim.Time, int, string, uint64, []sim.Field) {}

// CounterSample implements sim.Observer.
func (t *lifecycleTap) CounterSample(sim.Time, int, string, string, int64) {}
