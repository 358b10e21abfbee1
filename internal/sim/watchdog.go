package sim

import (
	"fmt"
	"strings"
)

// The progress watchdog: instead of letting a protocol bug hang a run —
// either as a true deadlock (the event queue drains with Procs still blocked
// on conditions nobody will signal) or as a livelock that burns simulated
// time forever (poll loops rescheduling themselves past any horizon) — a
// caller drives the engine to now+budget with RunUntil (in one call or in
// slices), then asks BudgetCheck, and gets a typed StallError carrying a
// structured diagnostic dump: every blocked Proc with where and
// since-when it waits, live-Proc and pending-event counts, and the next
// event's timestamp. The dump is deterministic (conds enumerate in
// construction order, waiters in FIFO order), so a stall reproduces byte for
// byte like every other simulated outcome.

// StallKind classifies how a budgeted run failed to complete.
type StallKind uint8

// Stall kinds.
const (
	// StallBudget: the sim-time budget elapsed with events still pending —
	// the run is livelocked or simply not done (budget too small).
	StallBudget StallKind = iota
	// StallDeadlock: the event queue drained with more live Procs than the
	// caller expected — somebody waits on a wakeup that can never come.
	StallDeadlock
)

// String names the stall kind.
func (k StallKind) String() string {
	if k == StallDeadlock {
		return "deadlock"
	}
	return "budget-exceeded"
}

// BlockedProcInfo describes one Proc blocked on a condition variable.
type BlockedProcInfo struct {
	Proc  string // the Proc's Spawn name
	Where string // the blocking Cond's label ("cond" if unnamed)
	Since Time   // when the wait began
}

// StallError is the watchdog's structured diagnostic: the reason a budgeted
// run did not complete, plus a dump of the engine's blocked state at the
// moment it gave up.
type StallError struct {
	Kind   StallKind
	Now    Time // sim time when the watchdog fired
	Budget Time // the budget the caller allowed

	PendingEvents int    // scheduled events remaining
	NextEventAt   Time   // timestamp of the earliest pending event (if any)
	Executed      uint64 // total events executed so far

	LiveProcs     int // spawned Procs that have not finished
	CondBlocked   int // Procs blocked on condition variables
	ExpectedProcs int // the live-Proc count the caller said is legitimate

	// Blocked lists every Proc found waiting on a Cond, in deterministic
	// order (cond construction order, then FIFO within a cond). Procs blocked
	// inside Call (resource grants) are counted in LiveProcs but carry no
	// Cond record.
	Blocked []BlockedProcInfo

	// Notes carries machine-level context appended by higher layers (queue
	// depths, in-flight frame counts); the sim engine itself leaves it empty.
	Notes []string
}

// Error renders the structured dump as a multi-line report.
func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: %s at %v (budget %v): %d events pending, %d events executed, %d live procs (%d expected), %d blocked on conds",
		e.Kind, e.Now, e.Budget, e.PendingEvents, e.Executed, e.LiveProcs, e.ExpectedProcs, e.CondBlocked)
	if e.PendingEvents > 0 {
		fmt.Fprintf(&b, ", next event at %v", e.NextEventAt)
	}
	for _, bp := range e.Blocked {
		fmt.Fprintf(&b, "\n  blocked proc %q at %s since %v", bp.Proc, bp.Where, bp.Since)
	}
	for _, n := range e.Notes {
		fmt.Fprintf(&b, "\n  note: %s", n)
	}
	return b.String()
}

// Stalled snapshots the engine's blocked state into a StallError of the
// given kind. It is observation-only: no engine state changes.
func (e *Engine) Stalled(kind StallKind, budget Time, expectedLive int) *StallError {
	se := &StallError{
		Kind:          kind,
		Now:           e.now,
		Budget:        budget,
		PendingEvents: e.q.len(),
		Executed:      e.nEvents,
		LiveProcs:     e.procs,
		CondBlocked:   e.blocked,
		ExpectedProcs: expectedLive,
	}
	if e.q.len() > 0 {
		se.NextEventAt = e.q.peek()
	}
	for _, c := range e.conds {
		name := c.name
		if name == "" {
			name = "cond"
		}
		for _, w := range c.waiters {
			se.Blocked = append(se.Blocked, BlockedProcInfo{
				Proc: w.p.Name(), Where: name, Since: w.since,
			})
		}
	}
	return se
}

// BudgetCheck classifies the engine's state after a budgeted run, once the
// caller's RunUntil (or its final slice) has reached the budget's end: nil
// when the event queue drained with no more than expectedLive Procs still
// alive (services legitimately block forever — firmware loops — and the
// caller knows how many), a StallBudget error when events are still
// pending, and a StallDeadlock error when the queue drained but extra Procs
// remain blocked with no wakeup scheduled.
func (e *Engine) BudgetCheck(budget Time, expectedLive int) *StallError {
	if e.q.len() > 0 {
		return e.Stalled(StallBudget, budget, expectedLive)
	}
	if e.procs > expectedLive {
		return e.Stalled(StallDeadlock, budget, expectedLive)
	}
	return nil
}
