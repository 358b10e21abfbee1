package sim

import (
	"runtime"
	"testing"
)

func TestProcDelay(t *testing.T) {
	e := NewEngine()
	var at []Time
	e.Spawn("p", func(p *Proc) {
		at = append(at, p.Now())
		p.Delay(100)
		at = append(at, p.Now())
		p.Delay(0) // zero delay must not yield/advance
		at = append(at, p.Now())
		p.Delay(50)
		at = append(at, p.Now())
	})
	e.Run()
	want := []Time{0, 100, 100, 150}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("at = %v, want %v", at, want)
		}
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs = %d", e.LiveProcs())
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Spawn("a", func(p *Proc) {
		log = append(log, "a0")
		p.Delay(10)
		log = append(log, "a1")
		p.Delay(20)
		log = append(log, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		log = append(log, "b0")
		p.Delay(15)
		log = append(log, "b1")
	})
	e.Run()
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestProcCallImmediate(t *testing.T) {
	e := NewEngine()
	done := false
	e.Spawn("p", func(p *Proc) {
		// Completion invoked synchronously inside start.
		p.Call(func(cb func()) { cb() })
		done = true
	})
	e.Run()
	if !done {
		t.Fatal("proc did not complete")
	}
}

func TestProcCallDeferred(t *testing.T) {
	e := NewEngine()
	var completedAt Time
	e.Spawn("p", func(p *Proc) {
		p.Call(func(cb func()) { e.Schedule(77, cb) })
		completedAt = p.Now()
	})
	e.Run()
	if completedAt != 77 {
		t.Fatalf("completed at %v, want 77", completedAt)
	}
}

// runRecovered runs e until it drains or panics and returns the recovered
// panic value (nil if Run returned normally).
func runRecovered(e *Engine) (r interface{}) {
	defer func() { r = recover() }()
	e.Run()
	return nil
}

// TestProcPanicPropagates: a panic in a Proc body reaches Run tagged with the
// proc's name, and the panicking proc is dead and no longer counted live.
func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	boom := e.Spawn("boom", func(p *Proc) {
		p.Delay(10)
		panic("boom")
	})
	e.Spawn("bystander", func(p *Proc) { p.Delay(100) })
	if r := runRecovered(e); r != `sim: proc "boom" panicked: boom` {
		t.Fatalf("recovered %v", r)
	}
	if !boom.dead {
		t.Error("panicked proc not marked dead")
	}
	if e.LiveProcs() != 1 {
		t.Errorf("live procs = %d, want 1 (the bystander)", e.LiveProcs())
	}
}

// TestProcNestedPanicPropagates: proc a completes proc b's Call from inside
// its own window, so b's window nests in a's. A panic in b unwinds through
// a as well; the value that reaches Run names both, and both are dead.
func TestProcNestedPanicPropagates(t *testing.T) {
	e := NewEngine()
	var doneB func()
	b := e.Spawn("b", func(p *Proc) {
		p.Call(func(done func()) { doneB = done })
		panic("boom")
	})
	a := e.Spawn("a", func(p *Proc) {
		p.Delay(10)
		doneB()
	})
	want := `sim: proc "a" panicked: sim: proc "b" panicked: boom`
	if r := runRecovered(e); r != want {
		t.Fatalf("recovered %v, want %s", r, want)
	}
	if !a.dead || !b.dead {
		t.Errorf("dead: a=%v b=%v, want both", a.dead, b.dead)
	}
	if e.LiveProcs() != 0 {
		t.Errorf("live procs = %d, want 0", e.LiveProcs())
	}
}

// TestProcNestedCallPanics: a start function that Calls on its own Proc is
// a usage error with a named panic; the Proc has one Call in flight at most.
func TestProcNestedCallPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("nest", func(p *Proc) {
		p.Call(func(done func()) {
			p.Call(func(inner func()) { inner() })
			done()
		})
	})
	want := `sim: proc "nest" panicked: sim: nested Call in proc "nest"`
	if r := runRecovered(e); r != want {
		t.Fatalf("recovered %v, want %s", r, want)
	}
}

// frameLog is a ProcProfiler recording resumes and frame hooks with the proc
// each was attributed to.
type frameLog struct{ log []string }

func (f *frameLog) ProcStart(Time, *Proc)                    {}
func (f *frameLog) ProcResume(_ Time, p *Proc)               { f.log = append(f.log, "resume "+p.Name()) }
func (f *frameLog) ProcBlock(Time, *Proc, BlockKind, string) {}
func (f *frameLog) ProcEnd(Time, *Proc)                      {}
func (f *frameLog) FramePush(p *Proc, name string)           { f.log = append(f.log, p.Name()+" push "+name) }
func (f *frameLog) FramePop(p *Proc)                         { f.log = append(f.log, p.Name()+" pop") }

// TestNestedResumeAttribution: when a completes b's Call, b's window runs
// inside a's. Frames pushed in that window belong to b, and once b blocks
// again a is the current proc, so its pending ProfPop closes a's frame.
func TestNestedResumeAttribution(t *testing.T) {
	e := NewEngine()
	fl := &frameLog{}
	e.SetProfiler(fl)
	var doneB func()
	e.Spawn("b", func(p *Proc) {
		p.Call(func(done func()) { doneB = done })
		e.ProfPush("b-work")
		e.ProfPop()
		p.Delay(5)
	})
	e.Spawn("a", func(p *Proc) {
		p.Delay(10)
		e.ProfPush("a-outer")
		doneB()
		if e.curProc != p {
			t.Errorf("current proc after the nested window = %v, want a", e.curProc)
		}
		e.ProfPop()
	})
	e.Run()
	want := []string{
		"resume b", "resume a", "resume a", "a push a-outer",
		"resume b", "b push b-work", "b pop", "a pop", "resume b",
	}
	if len(fl.log) != len(want) {
		t.Fatalf("log = %q, want %q", fl.log, want)
	}
	for i := range want {
		if fl.log[i] != want[i] {
			t.Fatalf("log = %q, want %q", fl.log, want)
		}
	}
	if e.curProc != nil {
		t.Errorf("current proc after Run = %v, want none", e.curProc)
	}
}

func TestCondSignalFIFO(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var order []string
	for _, name := range []string{"x", "y", "z"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			c.Wait(p)
			order = append(order, name)
		})
	}
	e.Spawn("waker", func(p *Proc) {
		p.Delay(10)
		if c.Waiting() != 3 {
			t.Errorf("waiting = %d, want 3", c.Waiting())
		}
		c.Signal()
		p.Delay(10)
		c.Broadcast()
	})
	e.Run()
	want := []string{"x", "y", "z"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.BlockedProcs() != 0 {
		t.Fatalf("blocked = %d", e.BlockedProcs())
	}
}

func TestCondDeadlockDetectable(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	e.Run()
	if e.BlockedProcs() != 1 {
		t.Fatalf("blocked = %d, want 1", e.BlockedProcs())
	}
	if e.LiveProcs() != 1 {
		t.Fatalf("live = %d, want 1", e.LiveProcs())
	}
}

func TestGate(t *testing.T) {
	e := NewEngine()
	g := NewGate(e)
	var times []Time
	e.Spawn("early", func(p *Proc) {
		g.Wait(p)
		times = append(times, p.Now())
	})
	e.Spawn("opener", func(p *Proc) {
		p.Delay(30)
		g.Open()
		g.Open() // idempotent
	})
	e.Spawn("late", func(p *Proc) {
		p.Delay(100)
		g.Wait(p) // already open: returns immediately
		times = append(times, p.Now())
	})
	e.Run()
	if times[0] != 30 || times[1] != 100 {
		t.Fatalf("times = %v", times)
	}
	if !g.IsOpen() || g.OpenedAt() != 30 {
		t.Fatalf("gate open=%v at=%v", g.IsOpen(), g.OpenedAt())
	}
}

func TestQueueBlockingPop(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Delay(10)
			q.Push(i)
		}
	})
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
	q.Push(4)
	q.Push(5) // no waiter left: both stay queued
	if q.Len() != 2 {
		t.Fatalf("len = %d, want 2", q.Len())
	}
}

func TestResourceFIFOAndAccounting(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Schedule(0, func() {
			r.Use(10, func() { order = append(order, i) })
		})
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v", order)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("now = %v, want 30 (serialized)", e.Now())
	}
	if r.BusyTime() != 30 {
		t.Fatalf("busy = %v, want 30", r.BusyTime())
	}
	if r.Grants() != 3 {
		t.Fatalf("grants = %d", r.Grants())
	}
}

func TestResourceUseP(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x")
	var aDone, bDone Time
	e.Spawn("a", func(p *Proc) { r.UseP(p, 20); aDone = p.Now() })
	e.Spawn("b", func(p *Proc) { r.UseP(p, 5); bDone = p.Now() })
	e.Run()
	if aDone != 20 || bDone != 25 {
		t.Fatalf("aDone=%v bDone=%v", aDone, bDone)
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewResource(NewEngine(), "x").Release()
}

// TestSpawnReusesCoroutine: on a warm engine a spawn-run-end cycle makes no
// coroutine. It allocates only the Proc record and its two prebound
// callbacks; the same cycle on a fresh iter.Pull coroutine allocates 16
// times.
func TestSpawnReusesCoroutine(t *testing.T) {
	e := NewEngine()
	body := func(p *Proc) { p.Delay(1) }
	cycle := func() {
		e.Spawn("p", body)
		for e.Step() { // Step, unlike Run, keeps the parked worker
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 3 {
		t.Fatalf("a spawn-run-end cycle allocates %v, want at most 3 (the Proc record)", allocs)
	}
}

// TestSecondSpawnReusesWorker: a Proc spawned after another ended runs on
// the ended Proc's worker, under its own Proc record and name.
func TestSecondSpawnReusesWorker(t *testing.T) {
	e := NewEngine()
	var names []string
	first := e.Spawn("first", func(p *Proc) { names = append(names, p.Name()) })
	for e.Step() {
	}
	second := e.SpawnOn(3, "sP", "fw", "second", func(p *Proc) { names = append(names, p.Name()) })
	if second.w != first.w {
		t.Fatal("the second spawn made a new worker; want the first spawn's")
	}
	for e.Step() {
	}
	if len(names) != 2 || names[0] != "first" || names[1] != "fw3-second" {
		t.Fatalf("names = %q", names)
	}
	if !first.dead || !second.dead || e.LiveProcs() != 0 {
		t.Fatalf("dead: first=%v second=%v, live=%d", first.dead, second.dead, e.LiveProcs())
	}
}

// TestRunReleasesParkedWorkers: once Run returns with an empty queue no
// worker is left parked, and only the blocked Proc's worker is held; the
// next spawn makes a fresh coroutine.
func TestRunReleasesParkedWorkers(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	for i := 0; i < 3; i++ {
		e.Spawn("short", func(p *Proc) { p.Delay(Time(i + 1)) })
	}
	stuck := e.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	e.Run()
	if len(e.idle) != 0 {
		t.Fatalf("%d workers parked after Run, want 0", len(e.idle))
	}
	if len(e.workers) != 1 || e.workers[0] != stuck.w {
		t.Fatalf("engine holds %d workers after Run, want only the blocked proc's", len(e.workers))
	}
	ran := false
	e.Spawn("later", func(p *Proc) { ran = true })
	e.Run()
	if !ran || len(e.idle) != 0 || len(e.workers) != 1 {
		t.Fatalf("later spawn: ran=%v, %d parked, %d held", ran, len(e.idle), len(e.workers))
	}
}

// TestPanickedWorkerNotReused: a body that panics takes its worker down;
// the next spawn gets a fresh worker, and the next drained Run drops the
// dead one from the engine.
func TestPanickedWorkerNotReused(t *testing.T) {
	e := NewEngine()
	boom := e.Spawn("boom", func(p *Proc) { panic("boom") })
	if r := runRecovered(e); r != `sim: proc "boom" panicked: boom` {
		t.Fatalf("recovered %v", r)
	}
	if len(e.idle) != 0 {
		t.Fatal("the panicked worker was parked")
	}
	next := e.Spawn("next", func(p *Proc) {})
	if next.w == boom.w {
		t.Fatal("a spawn reused the panicked worker")
	}
	e.Run()
	if len(e.workers) != 0 {
		t.Fatalf("engine holds %d workers after Run, want 0", len(e.workers))
	}
}

// TestStaleWakeupPanics: a wakeup of an ended Proc panics even when its
// worker already runs another Proc, which it must not resume.
func TestStaleWakeupPanics(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	ended := e.Spawn("ended", func(p *Proc) {})
	for e.Step() {
	}
	resumed := false
	e.Spawn("waiter", func(p *Proc) {
		c.Wait(p)
		resumed = true
	})
	for e.Step() {
	}
	e.Schedule(0, ended.runFn)
	if r := runRecovered(e); r != `sim: resuming dead proc "ended"` {
		t.Fatalf("recovered %v", r)
	}
	if resumed || c.Waiting() != 1 {
		t.Fatalf("the stale wakeup resumed the worker's next proc (resumed=%v, waiting=%d)", resumed, c.Waiting())
	}
}

// closeLog is a ProcProfiler that counts its callbacks.
type closeLog struct{ calls int }

func (c *closeLog) ProcStart(Time, *Proc)                    { c.calls++ }
func (c *closeLog) ProcResume(Time, *Proc)                   { c.calls++ }
func (c *closeLog) ProcBlock(Time, *Proc, BlockKind, string) { c.calls++ }
func (c *closeLog) ProcEnd(Time, *Proc)                      { c.calls++ }
func (c *closeLog) FramePush(*Proc, string)                  { c.calls++ }
func (c *closeLog) FramePop(*Proc)                           { c.calls++ }

// TestCloseStopsEveryCoroutine: Close ends parked workers, unwinds blocked
// bodies (their deferred calls run, the code after the block does not),
// and leaves the goroutine count where it was before the engine existed.
// It schedules nothing and makes no profiler callback.
func TestCloseStopsEveryCoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	pr := &closeLog{}
	e.SetProfiler(pr)
	c := NewCond(e)
	unwound, passed := 0, 0
	for i := 0; i < 4; i++ {
		e.Spawn("cond", func(p *Proc) {
			defer func() { unwound++ }()
			c.Wait(p)
			passed++
		})
	}
	e.Spawn("call", func(p *Proc) {
		defer func() { unwound++ }()
		p.Call(func(func()) {}) // never completes
		passed++
	})
	e.Spawn("delay", func(p *Proc) {
		defer func() { unwound++ }()
		p.Delay(100)
		passed++
	})
	e.Spawn("short", func(p *Proc) {})
	e.RunUntil(10) // "short" ends and parks; "delay" stays scheduled
	e.Spawn("unstarted", func(p *Proc) { passed++ })
	if got := runtime.NumGoroutine() - base; got != 7 {
		t.Fatalf("%d coroutines before Close, want 7", got)
	}
	pending, calls := e.Pending(), pr.calls
	e.Close()
	if unwound != 6 || passed != 0 {
		t.Errorf("unwound %d bodies, %d passed their block point; want 6 and 0", unwound, passed)
	}
	if got := runtime.NumGoroutine() - base; got != 0 {
		t.Errorf("%d coroutines left after Close, want 0", got)
	}
	if e.Pending() != pending || pr.calls != calls {
		t.Errorf("Close scheduled %d events and made %d profiler callbacks",
			e.Pending()-pending, pr.calls-calls)
	}
}
