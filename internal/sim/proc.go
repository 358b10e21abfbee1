//go:build go1.23

// The go1.23 constraint gives this file the language version iter.Pull
// needs while go.mod stays at 1.22 (the nested benchmark module pins go
// 1.22, and a root module at 1.23 would force it to change). Any go1.23+
// toolchain builds it.

package sim

import (
	"fmt"
	"iter"
	"strconv"
)

// Proc is a simulated sequential process (an aP program, a firmware handler
// loop, a traffic generator). A Proc's body runs on a stdlib coroutine
// (iter.Pull) that the engine pools across Procs, in strict handoff with
// the engine: resuming it returns once the Proc either blocks again (Delay,
// Cond.Wait, Call) or finishes. Control moves directly between coroutines,
// never through the Go scheduler, and exactly one of them executes at any
// instant, preserving determinism.
//
// Resuming is the coroutine's next and blocking is its yield, so every
// transfer is one coroutine switch. Both resume-closures (run as an engine
// event) and the Call completion callback are bound once at Spawn, so the
// steady-state block/resume cycle performs no allocation.
type Proc struct {
	eng *Engine
	w   *worker // the pooled coroutine running the body

	// name is the Spawn name; with a tag, Name renders "<tag><node>-<name>".
	name string
	tag  string

	// Profiler attribution given at SpawnOn: the node and component this
	// proc executes on (an aP program, sP firmware). Plain Spawn leaves them
	// at (-1, ""), which the profiler groups as "host".
	component string
	onNode    int

	// runFn is the prebound p.run method value: scheduling a wakeup is
	// `eng.Schedule(d, p.runFn)` with no per-wakeup closure allocation.
	runFn func()
	// doneFn is the prebound completion callback handed to a Call's start.
	doneFn func()

	dead bool
	// Completion state of the active Call. A Proc has at most one Call in
	// flight: a start function that itself Calls panics. inline marks an
	// Inline window, in which the Proc must not block.
	callActive    bool
	callCompleted bool
	callBlocked   bool
	inline        bool
}

// worker is a pooled coroutine. It runs one bound Proc's body at a time and
// ends that Proc, then parks on its engine's idle list until SpawnOn binds
// the next Proc. A body that panics takes its worker down with it.
type worker struct {
	next  func() (struct{}, bool) // resumes the coroutine until its next yield
	yield func(struct{}) bool     // suspends the coroutine back into next's caller
	stop  func()                  // ends the coroutine wherever it is suspended
	p     *Proc                   // the bound Proc; after its end, until rebound
	body  func(p *Proc)           // p's body, until it starts
}

// procClosed is the panic value that unwinds a blocked Proc's body when
// Engine.Close stops its worker; the worker recovers it silently.
type procClosed struct{}

// Spawn starts body as a new process at the current simulated time.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	return e.SpawnOn(-1, "", "", name, body)
}

// SpawnOn is Spawn with a (node, component) attribution for the
// simulated-time profiler: the proc's lifetime buckets roll up under
// "node<n>/<component>" (e.g. "node0/aP", "node2/sP") in profile exports.
// A non-empty tag names the proc "<tag><node>-<name>" (tag "fw" on node 3:
// "fw3-<name>"), rendered only when Name is called. Timing and scheduling
// are identical to Spawn.
//
// The body runs on a parked worker when the engine has one, and on a new
// coroutine otherwise. Either way it starts from the same zero-delay event.
func (e *Engine) SpawnOn(node int, component, tag, name string, body func(p *Proc)) *Proc {
	p := &Proc{
		eng:       e,
		name:      name,
		tag:       tag,
		onNode:    node,
		component: component,
	}
	p.runFn = p.run
	p.doneFn = p.callDone
	if n := len(e.idle); n > 0 {
		p.w = e.idle[n-1]
		e.idle = e.idle[:n-1]
	} else {
		p.w = new(worker)
		p.w.next, p.w.stop = iter.Pull(p.w.loop)
		e.workers = append(e.workers, p.w)
	}
	p.w.p, p.w.body = p, body
	e.procs++
	if e.prof != nil {
		e.prof.ProcStart(e.now, p)
	}
	e.Schedule(0, p.runFn)
	return p
}

// loop is the worker's coroutine: run the bound Proc to its end, park,
// repeat. It returns when Close unwinds a body or stops the parked worker.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	e := w.p.eng
	for w.runBody() {
		e.idle = append(e.idle, w)
		if !yield(struct{}{}) {
			return
		}
	}
}

// runBody runs the bound Proc's body and then ends the Proc: the profiler's
// ProcEnd, dead, and the live count. It reports false if Close unwound the
// body instead, which ends nothing.
func (w *worker) runBody() (ended bool) {
	p, body := w.p, w.body
	w.body = nil
	defer func() {
		r := recover()
		if _, closed := r.(procClosed); closed {
			return
		}
		e := p.eng
		if e.prof != nil {
			e.prof.ProcEnd(e.now, p)
		}
		p.dead = true
		e.procs--
		if r != nil {
			// next re-raises this in whichever event or proc resumed p.
			panic(fmt.Sprintf("sim: proc %q panicked: %v", p.Name(), r))
		}
		ended = true
	}()
	body(p)
	return
}

// releaseIdle stops the parked workers once the event queue has drained,
// so no idle coroutine outlives a run; a later spawn makes a fresh one.
//
//voyager:noalloc
func (e *Engine) releaseIdle() {
	if len(e.idle) == 0 {
		return
	}
	for _, w := range e.idle {
		w.stop()
	}
	clear(e.idle)
	e.idle = e.idle[:0]
	// Keep the workers whose Proc is live, dropping the stopped ones and
	// any a panicking body took down.
	n := 0
	for _, w := range e.workers {
		if !w.p.dead {
			e.workers[n] = w
			n++
		}
	}
	clear(e.workers[n:])
	e.workers = e.workers[:n]
}

// Close stops every coroutine the engine holds. Parked workers end, and the
// body of every Proc still blocked unwinds from its block point, running
// its deferred calls, with no ProcEnd. Close schedules nothing and makes no
// profiler callback; the engine is unusable afterwards. A blocked coroutine
// keeps everything its body references reachable, so a process that builds
// machines in a loop closes each one, from outside any Proc, once it has
// read its results.
func (e *Engine) Close() {
	for _, w := range e.workers {
		w.stop()
	}
	e.workers, e.idle = nil, nil
}

// Origin returns the (node, component) attribution given at SpawnOn, or
// (-1, "") for a plain Spawn.
func (p *Proc) Origin() (node int, component string) { return p.onNode, p.component }

// Name returns the process name: the Spawn name, or "<tag><node>-<name>"
// for a proc spawned with a tag.
func (p *Proc) Name() string {
	if p.tag == "" {
		return p.name
	}
	return p.tag + strconv.Itoa(p.onNode) + "-" + p.name
}

// Engine returns the engine driving this process.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// run resumes the process coroutine and returns once it yields or finishes.
// It must only be called from an engine event, or from a proc's window when
// a Call completion resumes another proc. A panic in the body propagates out
// of run to its caller.
//
//voyager:noalloc
func (p *Proc) run() {
	if p.dead {
		panic(fmt.Sprintf("sim: resuming dead proc %q", p.Name())) //voyager:alloc-ok(panic path)
	}
	// Track the currently executing proc for the profiler's frame hooks.
	// Saving and restoring (rather than clearing) keeps nested resumes
	// correct: a Call completion delivered while another proc executes runs
	// this proc's window inside the outer one.
	e := p.eng
	prev := e.curProc
	e.curProc = p
	if e.prof != nil {
		e.prof.ProcResume(e.now, p)
	}
	p.w.next()
	e.curProc = prev
}

// block yields control back to whoever resumed the process. The caller must
// have arranged a wakeup (a scheduled event or Cond registration) that calls
// p.run(). If Close stops the worker instead, block unwinds the body.
//
//voyager:noalloc
func (p *Proc) block() {
	if p.inline {
		panic(fmt.Sprintf("sim: proc %q blocked inside Inline", p.Name())) //voyager:alloc-ok(panic path)
	}
	if !p.w.yield(struct{}{}) {
		panic(procClosed{})
	}
}

// Inline runs fn as p while p stays blocked: fn is the code p would run if
// resumed now, up to blocking again in a Call. It runs in the current event,
// with p as the current proc, and an attached profiler sees ProcResume
// before fn and ProcBlock(BlockBusy) after it, so fn's frame pushes and pops
// land exactly where the resumed proc's would. It saves the two coroutine
// switches of resuming p only for it to block again. fn must not block:
// Delay, Call and Cond waits inside it panic. p must be blocked, not
// running.
//
//voyager:noalloc
func (p *Proc) Inline(fn func()) {
	e := p.eng
	if p.dead || e.curProc == p {
		panic(fmt.Sprintf("sim: Inline on proc %q, which is not blocked", p.Name())) //voyager:alloc-ok(panic path)
	}
	prev := e.curProc
	e.curProc = p
	p.inline = true
	if e.prof != nil {
		e.prof.ProcResume(e.now, p)
	}
	fn()
	if e.prof != nil {
		e.prof.ProcBlock(e.now, p, BlockBusy, "")
	}
	p.inline = false
	e.curProc = prev
}

// Delay advances the process by d of simulated time (modeling computation or
// a fixed-latency operation).
//
//voyager:noalloc
func (p *Proc) Delay(d Time) {
	if d == 0 {
		return
	}
	p.eng.Schedule(d, p.runFn)
	if pr := p.eng.prof; pr != nil {
		pr.ProcBlock(p.eng.now, p, BlockBusy, "")
	}
	p.block()
}

// Call invokes start, which must eventually invoke the provided done
// callback (possibly immediately, possibly from a later event); the process
// blocks until then. It adapts callback-style component APIs to blocking
// style:
//
//	p.Call(func(done func()) { busPort.Issue(tx, done) })
//
// Call allocates nothing: the done callback is the Proc's prebound doneFn
// and the completion state lives in the Proc. Calls do not nest — start
// must not Call on the same Proc.
//
//voyager:noalloc
func (p *Proc) Call(start func(done func())) {
	if p.inline {
		panic(fmt.Sprintf("sim: proc %q blocked inside Inline", p.Name())) //voyager:alloc-ok(panic path)
	}
	if p.callActive {
		panic(fmt.Sprintf("sim: nested Call in proc %q", p.Name())) //voyager:alloc-ok(panic path)
	}
	p.callActive = true
	p.callCompleted = false
	p.callBlocked = false
	start(p.doneFn)
	if !p.callCompleted {
		p.callBlocked = true
		if pr := p.eng.prof; pr != nil {
			pr.ProcBlock(p.eng.now, p, BlockBusy, "")
		}
		p.block()
	}
	p.callActive = false
}

// callDone is the prebound completion callback for the Call fast path.
//
//voyager:noalloc
func (p *Proc) callDone() {
	if !p.callActive || p.callCompleted {
		panic(fmt.Sprintf("sim: double completion in proc %q", p.Name())) //voyager:alloc-ok(panic path)
	}
	p.callCompleted = true
	if p.callBlocked {
		p.run()
	}
}
