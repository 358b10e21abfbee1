package sim

// This file defines the engine side of the simulated-time profiler: a
// ProcProfiler receives lifecycle callbacks for every Proc so it can account
// each one's lifetime into busy / blocked-on-cond / queued-wait buckets and
// attribute the time to an explicit frame stack.
//
// The hooks obey the same zero-timing-impact discipline as the Observer and
// the out-of-band timer hook (PR 2 / PR 7): they schedule no events, consume
// no sequence numbers, allocate no span or message ids, and never touch
// modeled state. With no profiler attached every hook site is a nil-check
// no-op, and attaching one cannot change any simulated outcome — a property
// the inertness tests in internal/bench pin byte-for-byte.

// BlockKind classifies why a Proc yielded control back to the engine.
type BlockKind uint8

const (
	// BlockBusy is a scheduled wakeup: modeled computation or a
	// fixed-latency hardware operation (Delay, Call — bus issues, resource
	// grants, command completions). Time spent here is the proc doing or
	// awaiting modeled work, so it accrues as self time on the current
	// attribution frame.
	BlockBusy BlockKind = iota
	// BlockCond is a wait on a plain condition variable (Cond.Wait): the
	// proc is idle until some other party signals it.
	BlockCond
	// BlockQueue is a wait on an empty Queue (Pop with no items): classic
	// producer starvation, reported separately from plain condition waits so
	// queue-coupling bottlenecks stand out.
	BlockQueue
)

// ProcProfiler receives Proc lifecycle callbacks from the engine. All
// callbacks run synchronously inside the strict engine/proc coroutine handoff,
// so implementations need no locking; they must not schedule events or touch
// modeled state. The hot callbacks (ProcResume, ProcBlock, FramePush,
// FramePop) are called from //voyager:noalloc engine paths and must be
// allocation-free in steady state.
type ProcProfiler interface {
	// ProcStart reports a Proc spawned at time at.
	ProcStart(at Time, p *Proc)
	// ProcResume reports the proc regaining control at time at; the profiler
	// closes the wait interval opened by the preceding ProcBlock (or by
	// ProcStart, for the first resume).
	ProcResume(at Time, p *Proc)
	// ProcBlock reports the proc yielding at time at. label is the blocking
	// condition's name for BlockCond/BlockQueue and empty for BlockBusy.
	ProcBlock(at Time, p *Proc, kind BlockKind, label string)
	// ProcEnd reports the proc's body returning at time at.
	ProcEnd(at Time, p *Proc)
	// FramePush descends the proc's attribution stack into a named frame
	// (an API operation, a firmware service handler).
	FramePush(p *Proc, name string)
	// FramePop returns to the parent frame.
	FramePop(p *Proc)
}

// SetProfiler attaches a profiler to the engine. Attach before spawning any
// Procs (i.e. before machine construction) so every proc's full lifetime is
// covered; procs already live at attach time are adopted on their next
// resume with their history up to that point unaccounted. A nil profiler
// detaches. Profiling is inert: it changes no simulated outcome.
func (e *Engine) SetProfiler(pr ProcProfiler) { e.prof = pr }

// ProfPush descends the current proc's attribution stack into frame name.
// It must be paired with a ProfPop on the same proc. Outside proc context,
// or with no profiler attached, it is a no-op.
//
//voyager:noalloc
func (e *Engine) ProfPush(name string) {
	if e.prof != nil && e.curProc != nil {
		e.prof.FramePush(e.curProc, name)
	}
}

// ProfPop undoes the matching ProfPush.
//
//voyager:noalloc
func (e *Engine) ProfPop() {
	if e.prof != nil && e.curProc != nil {
		e.prof.FramePop(e.curProc)
	}
}
