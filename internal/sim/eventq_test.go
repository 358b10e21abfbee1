package sim

import "testing"

// refEngine is the reference the timing wheel is checked against: a plain
// (at, seq) priority queue on the 4-ary heap alone, with the engine's
// Schedule/Step/RunUntil/timer-hook contract.
type refEngine struct {
	now    Time
	seq    uint64
	h      eventHeap
	hookAt Time
	hookFn func(Time)
}

func (r *refEngine) Now() Time    { return r.now }
func (r *refEngine) Pending() int { return len(r.h) }

func (r *refEngine) Schedule(d Time, fn func()) {
	r.seq++
	r.h.push(event{at: r.now + d, seq: r.seq, fn: fn})
}

func (r *refEngine) SetTimerHook(at Time, fn func(Time)) { r.hookAt, r.hookFn = at, fn }

func (r *refEngine) fireHooks(t Time) {
	for r.hookFn != nil && r.hookAt <= t {
		at, fn := r.hookAt, r.hookFn
		r.hookFn = nil
		if at > r.now {
			r.now = at
		}
		fn(at)
	}
}

func (r *refEngine) Step() bool {
	if len(r.h) == 0 {
		return false
	}
	if r.hookFn != nil && r.h[0].at >= r.hookAt {
		r.fireHooks(r.h[0].at)
	}
	ev := r.h.pop()
	r.now = ev.at
	ev.fn()
	return true
}

func (r *refEngine) RunUntil(t Time) {
	for len(r.h) > 0 && r.h[0].at <= t {
		r.Step()
	}
	if r.hookFn != nil && r.hookAt <= t {
		r.fireHooks(t)
	}
	if t > r.now {
		r.now = t
	}
}

// eventEngine is the surface FuzzEventOrder drives on both queues.
type eventEngine interface {
	Now() Time
	Pending() int
	Schedule(d Time, fn func())
	SetTimerHook(at Time, fn func(Time))
	Step() bool
	RunUntil(t Time)
}

// fired is one execution: an event's id at its time, or a timer hook
// (id -1) at its boundary.
type fired struct {
	at Time
	id int
}

// orderRig runs one decoded op stream on one engine. Every event it
// schedules logs itself and schedules children picked from the input by
// its id, so both rigs build the same event tree exactly when both engines
// pop in the same order.
type orderRig struct {
	eng    eventEngine
	data   []byte
	log    []fired
	nextID int
	hooks  int
}

// maxEvents bounds the events one input schedules and the hook boundaries
// it fires, so every input drains quickly.
const maxEvents = 2000

// fuzzDelay decodes a scheduling delay that lands on the wheel's edges:
// 0, 1, one short of the window, the window, one past it, k windows plus r,
// and short and long arbitrary delays.
func fuzzDelay(b, k, r byte) Time {
	switch b % 8 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return wheelSlots - 1
	case 3:
		return wheelSlots
	case 4:
		return wheelSlots + 1
	case 5:
		return Time(k%8)*wheelSlots + Time(r)
	case 6:
		return Time(b >> 3)
	default:
		return Time(k)<<8 | Time(r)
	}
}

func (g *orderRig) at(i int) byte { return g.data[i%len(g.data)] }

func (g *orderRig) schedule(d Time) {
	if g.nextID >= maxEvents {
		return
	}
	id := g.nextID
	g.nextID++
	g.eng.Schedule(d, func() {
		g.log = append(g.log, fired{g.eng.Now(), id})
		for j := 0; j < int(g.at(id)%3); j++ {
			g.schedule(fuzzDelay(g.at(id+j+1), g.at(id+2*j+3), g.at(id+j+5)))
		}
	})
}

func (g *orderRig) armHook(at, period Time) {
	g.eng.SetTimerHook(at, func(b Time) {
		g.log = append(g.log, fired{b, -1})
		if g.hooks++; period > 0 && g.hooks < maxEvents {
			g.armHook(b+period, period)
		}
	})
}

// apply runs op i of the stream: schedule, step, run until a horizon, or
// arm the timer hook.
func (g *orderRig) apply(op, b, k, r byte) {
	switch op % 4 {
	case 0:
		g.schedule(fuzzDelay(b, k, r))
	case 1:
		g.eng.Step()
	case 2:
		g.eng.RunUntil(g.eng.Now() + fuzzDelay(b, k, r))
	default:
		g.armHook(g.eng.Now()+fuzzDelay(b, k, r), Time(k%4)*Time(r))
	}
}

// FuzzEventOrder feeds one op stream to the engine and to the heap-only
// reference and requires the same (now, id) execution sequence, the same
// Now and the same Pending after every step.
func FuzzEventOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		eng, ref := &orderRig{eng: NewEngine(), data: data}, &orderRig{eng: &refEngine{}, data: data}
		seen := 0
		check := func(when string) {
			t.Helper()
			if len(eng.log) != len(ref.log) {
				t.Fatalf("%s: %d executions, reference %d", when, len(eng.log), len(ref.log))
			}
			for ; seen < len(eng.log); seen++ {
				if eng.log[seen] != ref.log[seen] {
					t.Fatalf("%s: execution %d is %+v, reference %+v", when, seen, eng.log[seen], ref.log[seen])
				}
			}
			if eng.eng.Now() != ref.eng.Now() || eng.eng.Pending() != ref.eng.Pending() {
				t.Fatalf("%s: now %v pending %d, reference now %v pending %d", when,
					eng.eng.Now(), eng.eng.Pending(), ref.eng.Now(), ref.eng.Pending())
			}
		}
		for i := 0; i < len(data); i += 4 {
			op, b, k, r := data[i], eng.at(i+1), eng.at(i+2), eng.at(i+3)
			eng.apply(op, b, k, r)
			ref.apply(op, b, k, r)
			check("op")
		}
		for steps := 0; ; steps++ {
			more := eng.eng.Step()
			if more != ref.eng.Step() {
				t.Fatalf("drain step %d: Step reported %v, reference %v", steps, more, !more)
			}
			check("drain")
			if !more {
				break
			}
		}
		// Drained, every slab node is back on the free list: the slab is
		// sized by the peak population, never by the event count.
		q, free := &eng.eng.(*Engine).q, 0
		for i := q.free; i != 0 && free < len(q.slab); i = q.slab[i].next {
			free++
		}
		if n := len(q.slab); n > 0 && free != n-1 {
			t.Fatalf("drained wheel has %d of %d slab nodes free", free, n-1)
		}
	})
}
