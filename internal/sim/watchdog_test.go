package sim

import (
	"strings"
	"testing"
)

// A run that completes within budget with every Proc finished is clean.
func TestRunBudgetClean(t *testing.T) {
	e := NewEngine()
	done := false
	e.Spawn("worker", func(p *Proc) {
		p.Delay(50 * Microsecond)
		done = true
	})
	e.RunUntil(e.Now() + 1*Millisecond)
	if err := e.BudgetCheck(1*Millisecond, 0); err != nil {
		t.Fatalf("clean run stalled: %v", err)
	}
	if !done {
		t.Fatal("worker did not run to completion")
	}
}

// Procs blocked on conditions nobody signals: the queue drains and the
// watchdog reports a deadlock naming each blocked Proc, where it waits, and
// since when — instead of the run silently "finishing" wedged.
func TestRunBudgetDeadlock(t *testing.T) {
	e := NewEngine()
	never := NewCond(e)
	never.SetName("niu/rx-slots")
	e.Spawn("consumer-a", func(p *Proc) {
		p.Delay(10 * Microsecond)
		never.Wait(p)
	})
	e.Spawn("consumer-b", func(p *Proc) {
		p.Delay(20 * Microsecond)
		never.Wait(p)
	})
	e.RunUntil(e.Now() + 1*Millisecond)
	err := e.BudgetCheck(1*Millisecond, 0)
	if err == nil {
		t.Fatal("deadlocked run reported clean")
	}
	if err.Kind != StallDeadlock {
		t.Fatalf("kind = %v, want deadlock", err.Kind)
	}
	if err.LiveProcs != 2 || err.CondBlocked != 2 || len(err.Blocked) != 2 {
		t.Fatalf("dump = live %d, blocked %d, records %d; want 2/2/2",
			err.LiveProcs, err.CondBlocked, len(err.Blocked))
	}
	// FIFO within the cond: consumer-a blocked first.
	if err.Blocked[0].Proc != "consumer-a" || err.Blocked[1].Proc != "consumer-b" {
		t.Fatalf("blocked order = %q, %q", err.Blocked[0].Proc, err.Blocked[1].Proc)
	}
	if err.Blocked[0].Where != "niu/rx-slots" {
		t.Fatalf("where = %q, want the cond label", err.Blocked[0].Where)
	}
	if err.Blocked[0].Since != 10*Microsecond || err.Blocked[1].Since != 20*Microsecond {
		t.Fatalf("since = %v, %v", err.Blocked[0].Since, err.Blocked[1].Since)
	}
	msg := err.Error()
	for _, want := range []string{"deadlock", "consumer-a", "consumer-b", "niu/rx-slots"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("diagnostic %q missing %q", msg, want)
		}
	}
}

// A poll loop that reschedules itself forever: simulated time advances past
// any budget, so the watchdog classifies it as budget-exceeded with the next
// pending event in the dump — and returns, rather than hanging the host.
func TestRunBudgetLivelock(t *testing.T) {
	e := NewEngine()
	e.Spawn("poller", func(p *Proc) {
		for {
			p.Delay(100 * Nanosecond)
		}
	})
	e.RunUntil(e.Now() + 200*Microsecond)
	err := e.BudgetCheck(200*Microsecond, 0)
	if err == nil {
		t.Fatal("livelocked run reported clean")
	}
	if err.Kind != StallBudget {
		t.Fatalf("kind = %v, want budget-exceeded", err.Kind)
	}
	if err.PendingEvents == 0 {
		t.Fatal("budget stall with no pending events in dump")
	}
	if err.NextEventAt <= err.Now {
		t.Fatalf("next event at %v is not beyond the run window ending %v", err.NextEventAt, err.Now)
	}
	if !strings.Contains(err.Error(), "budget-exceeded") {
		t.Fatalf("diagnostic %q does not name the kind", err.Error())
	}
}

// Legitimately ever-blocked service Procs (firmware loops) are excluded by
// the caller's expected count.
func TestRunBudgetExpectedServices(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	q.Observe(0, "fw", "svc")
	e.Spawn("service", func(p *Proc) {
		for {
			q.Pop(p)
		}
	})
	e.Spawn("worker", func(p *Proc) { p.Delay(5 * Microsecond) })
	e.RunUntil(e.Now() + 1*Millisecond)
	if err := e.BudgetCheck(1*Millisecond, 1); err != nil {
		t.Fatalf("service loop misreported as stall: %v", err)
	}
	// The same state with expectation 0 is a deadlock naming the service.
	err := e.BudgetCheck(1*Millisecond, 0)
	if err == nil || err.Kind != StallDeadlock {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if len(err.Blocked) != 1 || err.Blocked[0].Where != "fw/svc" {
		t.Fatalf("blocked = %+v, want the service at fw/svc", err.Blocked)
	}
}

// The dump is a snapshot: running further after a budget stall still works.
func TestStalledIsObservationOnly(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Spawn("poller", func(p *Proc) {
		for ticks < 100 {
			p.Delay(1 * Microsecond)
			ticks++
		}
	})
	e.RunUntil(e.Now() + 10*Microsecond)
	if err := e.BudgetCheck(10*Microsecond, 0); err == nil || err.Kind != StallBudget {
		t.Fatalf("err = %v, want budget stall", err)
	}
	e.RunUntil(e.Now() + 1*Millisecond)
	if err := e.BudgetCheck(1*Millisecond, 0); err != nil {
		t.Fatalf("resumed run stalled: %v", err)
	}
	if ticks != 100 {
		t.Fatalf("ticks = %d, want 100", ticks)
	}
}
