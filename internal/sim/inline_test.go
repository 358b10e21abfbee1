package sim

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"
)

// hookLog is a ProcProfiler recording every callback with its time and proc.
type hookLog struct{ log []string }

func (h *hookLog) add(format string, args ...any) {
	h.log = append(h.log, fmt.Sprintf(format, args...))
}

func (h *hookLog) ProcStart(at Time, p *Proc)  { h.add("%d start %s", at, p.Name()) }
func (h *hookLog) ProcResume(at Time, p *Proc) { h.add("%d resume %s", at, p.Name()) }
func (h *hookLog) ProcBlock(at Time, p *Proc, k BlockKind, label string) {
	h.add("%d block %s kind=%d %q", at, p.Name(), k, label)
}
func (h *hookLog) ProcEnd(at Time, p *Proc)       { h.add("%d end %s", at, p.Name()) }
func (h *hookLog) FramePush(p *Proc, name string) { h.add("%d push %s %s", p.Now(), p.Name(), name) }
func (h *hookLog) FramePop(p *Proc)               { h.add("%d pop %s", p.Now(), p.Name()) }

// spinProgram runs four 10 ns tries, each in its own "try" frame, the two
// ways a spinning wait can: resuming the proc after every try and blocking
// it again in a fresh Call, or keeping it blocked in one Call and running
// the step between tries through Inline. It returns the profiler log, the
// executed-event count and the end time.
func spinProgram(t *testing.T, inline bool) ([]string, uint64, Time) {
	e := NewEngine()
	h := &hookLog{}
	e.SetProfiler(h)
	const tries = 4
	e.Spawn("spin", func(p *Proc) {
		if !inline {
			for range tries {
				e.ProfPush("try")
				p.Call(func(done func()) { e.Schedule(10, done) })
				e.ProfPop()
			}
			return
		}
		n := 0
		e.ProfPush("try")
		p.Call(func(done func()) {
			var loaded func()
			loaded = func() {
				if n++; n == tries {
					done()
					return
				}
				p.Inline(func() {
					if e.curProc != p {
						t.Errorf("current proc inside Inline = %v, want spin", e.curProc)
					}
					e.ProfPop()
					e.ProfPush("try")
					e.Schedule(10, loaded)
				})
				if e.curProc != nil {
					t.Errorf("current proc after Inline = %v, want none", e.curProc)
				}
			}
			e.Schedule(10, loaded)
		})
		e.ProfPop()
	})
	e.Run()
	return h.log, e.Executed(), e.Now()
}

// TestInlineMatchesResume: a profiler sees the same ProcResume → frame
// pop/push → ProcBlock sequence from Inline as from a real resume followed
// by a Call, at the same times, and the engine runs the same events.
func TestInlineMatchesResume(t *testing.T) {
	resumed, evR, endR := spinProgram(t, false)
	inlined, evI, endI := spinProgram(t, true)
	if !slices.Equal(resumed, inlined) {
		t.Fatalf("profiler logs differ:\nresume: %q\ninline: %q", resumed, inlined)
	}
	if evR != evI || endR != endI {
		t.Errorf("resume ran %d events to %v, inline %d to %v", evR, endR, evI, endI)
	}
	if len(resumed) != 19 {
		t.Errorf("log has %d entries, want 19: %q", len(resumed), resumed)
	}
}

// TestInlinePanicsIfFnBlocks: fn runs in an event on the blocked proc's
// behalf, so it must not block; Delay, Call and Cond.Wait each panic with
// the proc's name.
func TestInlinePanicsIfFnBlocks(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func(p *Proc, c *Cond)
	}{
		{"Delay", func(p *Proc, _ *Cond) { p.Delay(5) }},
		{"Call", func(p *Proc, _ *Cond) { p.Call(func(done func()) { done() }) }},
		{"Wait", func(p *Proc, c *Cond) { c.Wait(p) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			c := NewCond(e)
			p := e.Spawn("spinner", func(p *Proc) {
				p.Call(func(func()) {}) // blocked for good
			})
			e.Run()
			got := func() (r any) {
				defer func() { r = recover() }()
				p.Inline(func() { tc.fn(p, c) })
				return nil
			}()
			if want := `sim: proc "spinner" blocked inside Inline`; got != want {
				t.Fatalf("recovered %v, want %s", got, want)
			}
		})
	}
}

// TestInlineOnRunningProcPanics: Inline stands in for resuming a blocked
// proc; a proc cannot Inline itself.
func TestInlineOnRunningProcPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("self", func(p *Proc) { p.Inline(func() {}) })
	want := `sim: proc "self" panicked: sim: Inline on proc "self", which is not blocked`
	if r := runRecovered(e); r != want {
		t.Fatalf("recovered %v, want %s", r, want)
	}
}

// TestInlineZeroAllocs: with a prebound fn, Inline itself allocates
// nothing.
func TestInlineZeroAllocs(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("spinner", func(p *Proc) { p.Call(func(func()) {}) })
	e.Run()
	fn := func() {}
	if a := testing.AllocsPerRun(1000, func() { p.Inline(fn) }); a != 0 {
		t.Errorf("Inline allocates %.1f/op, want 0", a)
	}
}

// TestProcSize pins sim.Proc at 96 bytes (a 96-byte size class): S-COMA
// continuations spawn short-lived Procs, so a field that spills Proc into
// the 112-byte class shows up in a workload's allocation volume.
func TestProcSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sized for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Proc{}); got != 96 {
		t.Errorf("sim.Proc is %d bytes, want 96", got)
	}
}
