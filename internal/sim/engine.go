// Package sim provides the deterministic discrete-event simulation engine
// underlying the StarT-Voyager model.
//
// The engine is single-threaded: events are executed strictly in (time,
// sequence) order. Concurrency in the modeled system (processors, firmware,
// routers) is expressed either as callback-style components that schedule
// events, or as Procs — bodies run on pooled stdlib coroutines (iter.Pull)
// driven in strict handoff so that exactly one of them runs at any instant.
// Both styles are deterministic and can be mixed freely. The package starts
// no goroutines and uses no channels; proc.go needs a go1.23 toolchain for
// iter.
package sim

import "fmt"

// Time is simulated time in nanoseconds since the start of the run.
type Time int64

// Common time units.
const (
	//lint:allow simtimeunits the unit definitions are the base literals
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats a Time with a human-friendly unit.
func (t Time) String() string {
	switch {
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	nEvents uint64 // total events executed

	procs   int // live Procs
	blocked int // Procs blocked on a Cond (not on a scheduled event)

	// Proc coroutines (proc.go): workers holds every worker whose coroutine
	// may still be suspended, bound to a live Proc or parked; idle holds the
	// parked ones, which SpawnOn reuses before it makes a new one.
	workers []*worker
	idle    []*worker

	obs     Observer // instrumentation sink (nil: all hooks are no-ops)
	spanSeq uint64   // deterministic span id allocator
	msgSeq  uint64   // deterministic message trace id allocator

	// Simulated-time profiler hooks (see profiler.go). prof is the attached
	// ProcProfiler (nil: every hook site is a nil-check no-op); curProc is
	// the Proc whose coroutine is currently executing, giving ProfPush/
	// ProfPop their implicit subject. Neither touches events or sequence
	// numbers, so attaching a profiler cannot perturb simulated outcomes.
	prof    ProcProfiler
	curProc *Proc

	// conds registers every condition variable created on this engine, in
	// construction order, so the stall watchdog (watchdog.go) can enumerate
	// blocked Procs with where and since-when they block. Registration is a
	// construction-time append; the steady-state wait/signal path never
	// touches it.
	conds []*Cond

	// Timer hook: an out-of-band callback fired when simulated time reaches
	// hookAt. Unlike a scheduled event it lives outside the event queue — it
	// consumes no sequence number and does not count toward nEvents — so
	// arming it cannot perturb the simulated outcome in any observable way.
	// The telemetry sampler (internal/stats) uses it to scrape metrics on
	// fixed window boundaries.
	hookAt Time
	hookFn func(Time)

	q eventQueue // pending events (eventq.go)
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
//
//voyager:noalloc
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.nEvents }

// Schedule runs fn after delay d (d may be zero; negative delays panic).
//
//voyager:noalloc
func (e *Engine) Schedule(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d)) //voyager:alloc-ok(panic path)
	}
	e.At(e.now+d, fn)
}

// At runs fn at absolute time t, which must not be in the past.
//
//voyager:noalloc
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now)) //voyager:alloc-ok(panic path)
	}
	e.seq++
	e.q.push(t, e.seq, fn)
}

// SetTimerHook arms the engine's single out-of-band timer: fn is invoked
// with the boundary time once simulated time reaches at. The hook fires
// before any event with timestamp >= at executes, so an observation at a
// window boundary always precedes the events that land exactly on it. The
// hook is one-shot — fn re-arms by calling SetTimerHook again — and passing
// a nil fn disarms it. Hooks are observation-only: they run between events,
// must not schedule events or otherwise touch modeled state, and leave the
// event sequence, the executed-event count, and every trace/span id
// allocator untouched.
//
//voyager:noalloc
func (e *Engine) SetTimerHook(at Time, fn func(Time)) {
	if fn != nil && at < e.now {
		panic(fmt.Sprintf("sim: timer hook at %v before now %v", at, e.now)) //voyager:alloc-ok(panic path)
	}
	e.hookAt = at
	e.hookFn = fn
}

// fireHooks invokes the timer hook for every armed boundary <= t, in order.
// now is advanced to each boundary before its callback runs so time reads
// (Meter.BusyTime, Engine.Now) see the boundary instant, never a stale
// earlier time.
//
//voyager:noalloc
func (e *Engine) fireHooks(t Time) {
	for e.hookFn != nil && e.hookAt <= t {
		at, fn := e.hookAt, e.hookFn
		e.hookFn = nil
		if at > e.now {
			e.now = at
		}
		fn(at)
	}
}

// Step executes the next event. It reports false when no events remain.
//
//voyager:noalloc
func (e *Engine) Step() bool {
	if e.q.len() == 0 {
		return false
	}
	if e.hookFn != nil {
		if at := e.q.peek(); at >= e.hookAt {
			e.fireHooks(at)
		}
	}
	at, fn := e.q.pop()
	e.now = at
	e.nEvents++
	fn()
	return true
}

// Run executes events until none remain, then stops the parked Proc
// coroutines.
//
//voyager:noalloc
func (e *Engine) Run() {
	for e.Step() {
	}
	e.releaseIdle()
}

// RunUntil executes events with timestamps <= t, then sets now to t. If no
// events remain, it stops the parked Proc coroutines, as Run does.
//
//voyager:noalloc
func (e *Engine) RunUntil(t Time) {
	for e.q.len() > 0 && e.q.peek() <= t {
		e.Step()
	}
	if e.q.len() == 0 {
		e.releaseIdle()
	}
	if e.hookFn != nil && e.hookAt <= t {
		e.fireHooks(t)
	}
	if t > e.now {
		e.now = t
	}
}

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return e.q.len() }

// BlockedProcs returns the number of live Procs currently blocked on a Cond
// with no scheduled wakeup. If Run returns while this is nonzero the modeled
// system has deadlocked.
func (e *Engine) BlockedProcs() int { return e.blocked }

// LiveProcs returns the number of spawned Procs that have not finished.
func (e *Engine) LiveProcs() int { return e.procs }
