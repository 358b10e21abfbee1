//go:build go1.23

// The go1.23 constraint gives this file the language version iter.Pull
// needs while go.mod stays at 1.22 (the nested benchmark module pins go
// 1.22, and a root module at 1.23 would force it to change). Any go1.23+
// toolchain builds it.

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated sequential process (an aP program, a firmware handler
// loop, a traffic generator). A Proc runs as a stdlib coroutine (iter.Pull)
// in strict handoff with the engine: resuming it returns once the Proc
// either blocks again (Delay, Cond.Wait, Call) or finishes. Control moves
// directly between coroutines, never through the Go scheduler, and exactly
// one of them executes at any instant, preserving determinism.
//
// Resuming is the coroutine's next and blocking is its yield, so every
// transfer is one coroutine switch. Both resume-closures (run as an engine
// event) and the Call completion callback are bound once at Spawn, so the
// steady-state block/resume cycle performs no allocation.
type Proc struct {
	eng   *Engine
	name  string
	next  func() (struct{}, bool) // resumes the body until its next yield
	yield func(struct{}) bool     // suspends the body back into next's caller
	dead  bool

	// Profiler attribution given at SpawnOn: the node and component this
	// proc executes on (an aP program, sP firmware). Plain Spawn leaves them
	// at (-1, ""), which the profiler groups as "host".
	onNode    int
	component string

	// runFn is the prebound p.run method value: scheduling a wakeup is
	// `eng.Schedule(d, p.runFn)` with no per-wakeup closure allocation.
	runFn func()

	// Completion state of the active Call, plus the prebound done callback
	// handed to start. A Proc has at most one Call in flight: a start
	// function that itself Calls panics.
	callActive    bool
	callCompleted bool
	callBlocked   bool
	doneFn        func()
}

// Spawn starts body as a new process at the current simulated time.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	return e.SpawnOn(-1, "", name, body)
}

// SpawnOn is Spawn with a (node, component) attribution for the
// simulated-time profiler: the proc's lifetime buckets roll up under
// "node<n>/<component>" (e.g. "node0/aP", "node2/sP") in profile exports.
// Timing and scheduling are identical to Spawn.
func (e *Engine) SpawnOn(node int, component, name string, body func(p *Proc)) *Proc {
	p := &Proc{
		eng:       e,
		name:      name,
		onNode:    node,
		component: component,
	}
	p.runFn = p.run
	p.doneFn = p.callDone
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			r := recover()
			if e.prof != nil {
				e.prof.ProcEnd(e.now, p)
			}
			p.dead = true
			e.procs--
			if r != nil {
				// next re-raises this in whichever event or proc resumed p.
				panic(fmt.Sprintf("sim: proc %q panicked: %v", p.name, r))
			}
		}()
		body(p)
	})
	e.procs++
	if e.prof != nil {
		e.prof.ProcStart(e.now, p)
	}
	e.Schedule(0, p.runFn)
	return p
}

// Origin returns the (node, component) attribution given at SpawnOn, or
// (-1, "") for a plain Spawn.
func (p *Proc) Origin() (node int, component string) { return p.onNode, p.component }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

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
		panic(fmt.Sprintf("sim: resuming dead proc %q", p.name)) //voyager:alloc-ok(panic path)
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
	p.next()
	e.curProc = prev
}

// block yields control back to whoever resumed the process. The caller must
// have arranged a wakeup (a scheduled event or Cond registration) that calls
// p.run().
//
//voyager:noalloc
func (p *Proc) block() {
	p.yield(struct{}{})
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
	if p.callActive {
		panic(fmt.Sprintf("sim: nested Call in proc %q", p.name)) //voyager:alloc-ok(panic path)
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
		panic(fmt.Sprintf("sim: double completion in proc %q", p.name)) //voyager:alloc-ok(panic path)
	}
	p.callCompleted = true
	if p.callBlocked {
		p.run()
	}
}

// CallT is like Call but passes through a value from the completion.
func CallT[T any](p *Proc, start func(done func(T))) T {
	var v T
	p.Call(func(done func()) {
		start(func(x T) {
			v = x
			done()
		})
	})
	return v
}
