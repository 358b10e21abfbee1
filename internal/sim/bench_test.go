package sim_test

import (
	"testing"

	"startvoyager/internal/sim"
)

// AllocsPerRun regression tests pinning the kernel's fast-path guarantees:
// the event queue's recycled node slab makes steady-state Schedule/Step
// allocation-free, the prebound completion callback makes an
// immediately-completing Proc.Call allocation-free, and a warm Queue
// pushes and pops without allocating. The timed probes of the same paths
// are internal/bench's microbenchmark suite (make bench-micro).

// fan seeds n self-rescheduling event chains so the queue holds a realistic
// pending population; deltas follow a fixed multiplicative walk.
func fan(e *sim.Engine, n int) {
	for j := 0; j < n; j++ {
		k := uint64(j)
		var fn func()
		fn = func() {
			k += 2654435761
			e.Schedule(sim.Time(k%4096)*sim.Nanosecond, fn)
		}
		e.Schedule(sim.Time(j)*sim.Nanosecond, fn)
	}
}

// TestScheduleStepZeroAllocs: once the queue's node slab has grown to the
// working-set size, Schedule+Step cycles must not allocate at all.
func TestScheduleStepZeroAllocs(t *testing.T) {
	e := sim.NewEngine()
	fan(e, 64)
	for i := 0; i < 256; i++ { // settle slab capacity
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() { e.Step() })
	if allocs != 0 {
		t.Fatalf("steady-state Schedule/Step allocates %v per op, want 0", allocs)
	}
}

// TestCallImmediateZeroAllocs: the immediate-completion Call path must not
// allocate — the completion callback is prebound at Spawn, not a per-Call
// closure.
func TestCallImmediateZeroAllocs(t *testing.T) {
	e := sim.NewEngine()
	immediate := func(done func()) { done() }
	var allocs float64
	e.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < 8; i++ { // warm up
			p.Call(immediate)
		}
		allocs = testing.AllocsPerRun(1000, func() { p.Call(immediate) })
	})
	e.Run()
	if allocs != 0 {
		t.Fatalf("immediate-completion Call allocates %v per op, want 0", allocs)
	}
}

// TestQueueSteadyStateZeroAllocs: once the ring buffer has grown to the
// working-set size, a push/pop cycle must not allocate.
func TestQueueSteadyStateZeroAllocs(t *testing.T) {
	e := sim.NewEngine()
	q := sim.NewQueue[int](e)
	var allocs float64
	e.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < 8; i++ { // warm up the waiter list and ring
			q.Pop(p)
		}
		allocs = testing.AllocsPerRun(500, func() {
			q.Push(1)
			q.Pop(p)
		})
	})
	e.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			q.Push(i)
			p.Delay(10 * sim.Nanosecond)
		}
	})
	e.Run()
	if allocs != 0 {
		t.Fatalf("steady-state Queue push/pop allocates %v per op, want 0", allocs)
	}
}
