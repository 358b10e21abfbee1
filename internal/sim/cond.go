package sim

// Cond is a simulated condition variable. Procs wait on it; components (or
// other Procs) wake them. Waiters are resumed in FIFO order, each as its own
// engine event at the current time, so wakeup order is deterministic.
type Cond struct {
	eng     *Engine
	name    string // optional label for stall diagnostics (see SetName)
	isQueue bool   // belongs to a Queue: waits profile as BlockQueue
	waiters []condWaiter
}

// condWaiter is one blocked Proc, held by value in its Cond's FIFO.
type condWaiter struct {
	p     *Proc
	since Time // when the wait began, for stall diagnostics
}

// NewCond returns a condition variable bound to e.
func NewCond(e *Engine) *Cond {
	c := &Cond{eng: e}
	e.conds = append(e.conds, c)
	return c
}

// SetName labels the condition for stall diagnostics: a Proc found blocked
// here is reported as waiting at this name. Unnamed conditions report as
// "cond".
func (c *Cond) SetName(name string) { c.name = name }

// Wait blocks p until a Signal or Broadcast resumes it. As with sync.Cond,
// callers should re-check their predicate in a loop.
//
//voyager:noalloc
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, condWaiter{p: p, since: c.eng.now}) //voyager:alloc-ok(amortized: waiter list backing array is retained)
	c.eng.blocked++
	c.profBlock(p)
	p.block()
}

// profBlock reports the imminent wait to the attached profiler (no-op
// without one): queue-backed conditions bucket as queued-wait, plain ones as
// blocked-on-cond, each labeled with the condition's diagnostic name.
//
//voyager:noalloc
func (c *Cond) profBlock(p *Proc) {
	pr := c.eng.prof
	if pr == nil {
		return
	}
	kind := BlockCond
	if c.isQueue {
		kind = BlockQueue
	}
	pr.ProcBlock(c.eng.now, p, kind, c.name)
}

// Signal wakes the longest-waiting process, if any.
//
//voyager:noalloc
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0].p
	c.waiters = PopFront(c.waiters)
	c.eng.blocked--
	c.eng.Schedule(0, p.runFn)
}

// Broadcast wakes all waiting processes in FIFO order.
//
//voyager:noalloc
func (c *Cond) Broadcast() {
	for len(c.waiters) > 0 {
		c.Signal()
	}
}

// Waiting returns the number of blocked processes.
func (c *Cond) Waiting() int { return len(c.waiters) }

// Gate is a level-triggered condition: Procs wait until it is opened; once
// open, waits return immediately. Useful for one-shot completions visible to
// multiple observers.
type Gate struct {
	cond *Cond
	open bool
	at   Time // time the gate opened
}

// NewGate returns a closed gate.
func NewGate(e *Engine) *Gate { return &Gate{cond: NewCond(e)} }

// Close re-arms an open gate so future Waits block again (Gates are
// reusable level-triggered signals). Closing a closed gate is a no-op.
func (g *Gate) Close() { g.open = false }

// Open opens the gate and wakes all waiters. Opening an open gate is a no-op.
func (g *Gate) Open() {
	if g.open {
		return
	}
	g.open = true
	g.at = g.cond.eng.now
	g.cond.Broadcast()
}

// IsOpen reports whether the gate has opened.
func (g *Gate) IsOpen() bool { return g.open }

// OpenedAt returns the time the gate opened (zero if still closed).
func (g *Gate) OpenedAt() Time { return g.at }

// Wait blocks p until the gate is open.
func (g *Gate) Wait(p *Proc) {
	for !g.open {
		g.cond.Wait(p)
	}
}

// Queue is an unbounded FIFO of items with blocking receive, for
// producer/consumer coupling between components and Procs. Items live in a
// ring buffer: steady-state push/pop traffic reuses the backing array
// instead of sliding a slice window along a perpetually reallocated one.
type Queue[T any] struct {
	cond *Cond
	buf  []T // ring storage; len(buf) is the capacity
	head int // index of the oldest item
	n    int // number of queued items

	observed bool
	obsNode  int
	obsComp  string
	obsName  string
}

// NewQueue returns an empty queue bound to e.
func NewQueue[T any](e *Engine) *Queue[T] {
	q := &Queue[T]{cond: NewCond(e)}
	q.cond.isQueue = true
	return q
}

// SetName labels the queue's condition for stall diagnostics and profiler
// wait leaves without registering a depth series (see Observe for both).
func (q *Queue[T]) SetName(name string) { q.cond.SetName(name) }

// Observe samples the queue depth onto the observability track
// (node, component) under name whenever the depth changes. The queue's
// condition inherits the label, so stall diagnostics name Procs blocked in
// Pop by the queue they starve on.
func (q *Queue[T]) Observe(node int, component, name string) {
	q.observed = true
	q.obsNode = node
	q.obsComp = component
	q.obsName = name
	q.cond.SetName(component + "/" + name)
}

//voyager:noalloc
func (q *Queue[T]) sample() {
	if q.observed {
		q.cond.eng.Sample(q.obsNode, q.obsComp, q.obsName, int64(q.n))
	}
}

// grow doubles the ring (linearizing it from head) when it is full.
//
//voyager:noalloc grows only while warming up; steady state reuses the ring
func (q *Queue[T]) grow() {
	size := 2 * len(q.buf)
	if size < 8 {
		size = 8
	}
	buf := make([]T, size) //voyager:alloc-ok(amortized ring doubling; steady state never grows)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = buf
	q.head = 0
}

// Push appends an item and wakes one waiter.
//
//voyager:noalloc
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
	q.sample()
	q.cond.Signal()
}

// Pop blocks p until an item is available, then removes and returns it.
//
//voyager:noalloc
func (q *Queue[T]) Pop(p *Proc) T {
	for q.n == 0 {
		q.cond.Wait(p)
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // release the slot's referents for GC
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	q.sample()
	return v
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.n }
