package core

import (
	"encoding/binary"
	"fmt"

	"startvoyager/internal/bus"
	"startvoyager/internal/sim"
)

// noDeadline marks a wait with no bound: the legacy blocking calls pass it so
// both variants share one code path. (Negative, and written in units so the
// simtimeunits analyzer stays happy.)
const noDeadline = -sim.Nanosecond

// TimeoutError reports that a bounded wait elapsed without the awaited event.
// A dead or partitioned peer surfaces as this error instead of an unbounded
// spin — the graceful-degradation contract of the *Timeout API variants.
type TimeoutError struct {
	Op      string   // the API operation that timed out
	Timeout sim.Time // the bound that elapsed
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("core: %s timed out after %v of simulated time", e.Op, e.Timeout)
}

// IsTimeout reports whether err is a core timeout.
func IsTimeout(err error) bool {
	_, ok := err.(*TimeoutError)
	return ok
}

// pollWait drives the blocking waits whose try is more than one load:
// SendReliable's status wait takes relLock, and RecvOverflow reads a cached
// DRAM ring. It retries try until it reports success or the timeout elapses
// (noDeadline = never). Polls that consume no simulated time (e.g. fully
// local checks) are self-paced so a spinning aP cannot monopolize the
// simulation instant.
//
//voyager:noalloc
func (a *API) pollWait(p *sim.Proc, op string, timeout sim.Time, try func() bool) error {
	deadline := p.Now() + timeout
	for {
		before := p.Now()
		if try() {
			return nil
		}
		if timeout >= 0 && p.Now() >= deadline {
			return &TimeoutError{Op: op, Timeout: timeout} //voyager:alloc-ok(timeout error on the cold exit)
		}
		if p.Now() == before {
			p.Delay(100 * sim.Nanosecond)
		}
	}
}

// spinKind names the NIU word a spin loads and what counts as a hit.
type spinKind uint8

const (
	// spinRx: a receive queue's producer pointer differs from the consumer
	// counter *ref, so a message is waiting.
	spinRx spinKind = iota
	// spinTx: fewer than lim messages lie between the producer counter *ref
	// and a transmit queue's consumer pointer.
	spinTx
	// spinExpress: the Express receive word holds a message.
	spinExpress
)

// spinEnd is how a spin ended.
type spinEnd uint8

const (
	spinHit spinEnd = iota
	spinTimeout
	spinShutdown
)

// spin is one blocking wait whose try is a single uncached load of an NIU
// word: a queue pointer the aBIU serves, or the Express receive word. The
// waiting Proc blocks in one Proc.Call for the whole wait, and the record
// issues each load itself, with the aP's cache as bus master. The bus
// completion tests the word and resumes the Proc only on a hit, an expired
// deadline or a shut-down transmit queue. On a miss it runs, through
// Proc.Inline, what the resumed Proc would have run at that point: close
// the try's occupancy bracket, open the next one, issue the next load. So
// the events, spans, meters and profiler callbacks are those of a loop over
// the Try variant, without the two coroutine switches per empty try. A bus
// word read always takes simulated time (at least 45 ns at the default
// 15 ns bus cycle), so a spin never needs self-pacing.
// Records are pooled per API and taken per wait, so Procs time-sharing the
// aP never share one.
type spin struct {
	a        *API
	p        *sim.Proc
	kind     spinKind
	addr     uint32   // the word's address
	ref      *uint32  // the software counter the word is tested against
	lim      uint32   // spinTx: the outstanding-message bound
	op       string   // each try's occupancy bracket ("": the caller's bracket)
	shutQ    int      // transmit queue whose shutdown ends the wait (-1: none)
	timeout  sim.Time // noDeadline: unbounded
	deadline sim.Time
	end      func() // closes the open try bracket
	done     func() // the Call's completion: resumes p
	result   spinEnd
	tx       bus.Transaction
	word     [8]byte

	startFn  func(done func())
	loadedFn func()
	retryFn  func()
}

// spinGet takes a pooled record for one wait on the word at addr.
//
//voyager:noalloc
func (a *API) spinGet(kind spinKind, addr uint32, ref *uint32, op string, timeout sim.Time) *spin {
	var s *spin
	if n := len(a.spinFree); n > 0 {
		s = a.spinFree[n-1]
		a.spinFree = a.spinFree[:n-1]
	} else {
		s = &spin{a: a}       //voyager:alloc-ok(pool warm-up; recycled thereafter)
		s.startFn = s.start   //voyager:alloc-ok(one-time method binding for the pooled record)
		s.loadedFn = s.loaded //voyager:alloc-ok(one-time method binding for the pooled record)
		s.retryFn = s.retry   //voyager:alloc-ok(one-time method binding for the pooled record)
	}
	s.kind, s.addr, s.ref, s.op, s.timeout = kind, addr, ref, op, timeout
	s.lim, s.shutQ = 0, -1
	return s
}

// wait blocks p until the word hits, the deadline passes or the transmit
// queue is shut down, and reports which. The last try's bracket is still
// open on return: the caller finishes the operation inside it, then calls
// release.
//
//voyager:noalloc
func (s *spin) wait(p *sim.Proc) spinEnd {
	s.p = p
	s.deadline = p.Now() + s.timeout
	if s.shut() {
		return spinShutdown
	}
	s.open()
	p.Call(s.startFn)
	return s.result
}

// release closes the open try bracket and returns s to the pool.
//
//voyager:noalloc
func (s *spin) release() {
	if s.end != nil {
		s.end()
	}
	s.p, s.ref, s.end, s.done = nil, nil, nil, nil
	s.a.spinFree = append(s.a.spinFree, s) //voyager:alloc-ok(amortized: pool backing array is retained)
}

//voyager:noalloc
func (s *spin) start(done func()) {
	s.done = done
	s.issue()
}

// issue puts the word's uncached load on the bus: the ReadWord that
// Cache.LoadUncached would issue.
//
//voyager:noalloc
func (s *spin) issue() {
	s.tx = bus.Transaction{Kind: bus.ReadWord, Addr: s.addr, Data: s.word[:], Master: s.a.n.Cache}
	s.a.n.Bus.Issue(&s.tx, s.loadedFn)
}

// loaded is the bus completion of one try.
//
//voyager:noalloc
func (s *spin) loaded() {
	switch {
	case s.hit():
		s.result = spinHit
	case s.timeout >= 0 && s.p.Now() >= s.deadline:
		s.result = spinTimeout
	case s.shut():
		s.result = spinShutdown
	default:
		s.p.Inline(s.retryFn)
		return
	}
	s.done()
}

// retry runs, as the blocked Proc, the step from an empty try to the next.
//
//voyager:noalloc
func (s *spin) retry() {
	if s.end != nil {
		s.end()
	}
	s.open()
	s.issue()
}

//voyager:noalloc
func (s *spin) open() {
	if s.op != "" {
		s.end = s.a.busy(s.p, s.op)
	}
}

//voyager:noalloc
func (s *spin) hit() bool {
	switch s.kind {
	case spinRx:
		return binary.BigEndian.Uint32(s.word[:4]) != *s.ref
	case spinTx:
		return *s.ref-binary.BigEndian.Uint32(s.word[4:]) < s.lim
	default:
		return s.word[0]&0x80 != 0
	}
}

//voyager:noalloc
func (s *spin) shut() bool {
	return s.shutQ >= 0 && s.a.n.Ctrl.TxShutdown(s.shutQ)
}
