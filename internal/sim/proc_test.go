package sim

import (
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
}

func TestQueueTryPop(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string](e)
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty succeeded")
	}
	q.Push("a")
	q.Push("b")
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
	v, ok := q.TryPop()
	if !ok || v != "a" {
		t.Fatalf("got %q, %v", v, ok)
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
