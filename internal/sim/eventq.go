package sim

import "math/bits"

// The event queue is an exact timing wheel with a heap behind it. The model
// is clocked hardware (15 ns bus cycles, 150 ns retry backoff, link
// serialization), so almost every event falls a few hundred nanoseconds
// ahead of now. Those land in one of wheelSlots one-nanosecond slots and
// cost O(1) to schedule and to pop; the rare longer delay (timeouts,
// retransmit timers, open-loop arrivals) waits in the 4-ary overflow heap
// until the window reaches it.
//
// The pop sequence is the (at, seq) order of the heap-only engine by
// construction. The wheel covers the window [base, base+wheelSlots), so a
// slot holds events of one instant only. Every event due at or after
// base+wheelSlots sits in the overflow heap, and whenever base advances the
// events the window now covers move from the heap into their slots in
// (at, seq) order. An event scheduled straight into a slot was scheduled
// after every event that reached the slot through the heap (the slot was
// outside the window when those were scheduled, and is inside now), so each
// slot's FIFO order is seq order.

const (
	wheelSlots = 4096 // one-nanosecond slots in the window
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64 // occupancy words, one bit per slot
)

type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before reports whether a orders ahead of b. (at, seq) is a strict total
// order — seq is unique and monotonic — so any correct priority queue over
// it pops the identical sequence.
//
//voyager:noalloc
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventHeap is a value-based 4-ary min-heap ordered by (at, seq): the
// wheel's overflow for events beyond its window. Events are stored inline
// (no per-push pointer allocation, no interface{} boxing), the backing array
// is retained across pops, and the 4-ary layout halves tree height versus a
// binary heap.
type eventHeap []event

// push appends ev and sifts it up to its heap position. The new event is
// held aside while ancestors shift down, so each level costs one event copy
// rather than a swap's three.
//
//voyager:noalloc
func (h *eventHeap) push(ev event) {
	s := append(*h, ev) //voyager:alloc-ok(amortized: heap backing array is retained across pops)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
	*h = s
}

// pop removes and returns the minimum event. The displaced last element is
// held aside while the smallest children shift up, then placed once.
//
//voyager:noalloc
func (h *eventHeap) pop() event {
	s := *h
	root := s[0]
	n := len(s) - 1
	moved := s[n]
	s[n] = event{} // release the closure so the GC can collect it
	s = s[:n]
	*h = s
	if n == 0 {
		return root
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		last := first + 4
		if last > n {
			last = n
		}
		min := first
		for c := first + 1; c < last; c++ {
			if s[c].before(&s[min]) {
				min = c
			}
		}
		if !s[min].before(&moved) {
			break
		}
		s[i] = s[min]
		i = min
	}
	s[i] = moved
	return root
}

// wheelNode is one scheduled event in the wheel: an entry of the node slab,
// linked into its slot's FIFO or, once popped, onto the free list.
type wheelNode struct {
	at   Time
	fn   func()
	next int32 // slab index of the next node; 0 (the sentinel) ends a list
}

// wheelSlot is one instant's FIFO of slab indices (0: empty).
type wheelSlot struct{ head, tail int32 }

// eventQueue is the engine's pending-event set; the zero value is empty.
type eventQueue struct {
	base    Time        // the window is [base, base+wheelSlots); base <= now
	n       int         // events in the wheel
	slab    []wheelNode // slab[0] is the sentinel; nodes recycle via free
	free    int32
	over    eventHeap          // events due at or after base+wheelSlots
	summary uint64             // bit w: words[w] != 0
	words   [wheelWords]uint64 // bit s%64 of words[s/64]: slot s is occupied
	slots   [wheelSlots]wheelSlot
}

// len returns the number of pending events.
//
//voyager:noalloc
func (q *eventQueue) len() int { return q.n + len(q.over) }

// push schedules fn at t, which must not precede base; seq orders it among
// events at the same instant.
//
//voyager:noalloc
func (q *eventQueue) push(t Time, seq uint64, fn func()) {
	if t-q.base >= wheelSlots {
		q.over.push(event{at: t, seq: seq, fn: fn})
		return
	}
	q.link(t, fn)
}

// link appends an event to the tail of its slot's FIFO.
//
//voyager:noalloc
func (q *eventQueue) link(t Time, fn func()) {
	i := q.free
	if i != 0 {
		q.free = q.slab[i].next
		q.slab[i] = wheelNode{at: t, fn: fn}
	} else {
		if len(q.slab) == 0 {
			q.slab = append(q.slab, wheelNode{}) //voyager:alloc-ok(pool warm-up: reserves the sentinel once)
		}
		i = int32(len(q.slab))
		q.slab = append(q.slab, wheelNode{at: t, fn: fn}) //voyager:alloc-ok(amortized: the slab grows to the peak in-window population and is retained)
	}
	s := int(t) & wheelMask
	sl := &q.slots[s]
	if sl.head == 0 {
		sl.head = i
		q.words[s>>6] |= 1 << (s & 63)
		q.summary |= 1 << (s >> 6)
	} else {
		q.slab[sl.tail].next = i
	}
	sl.tail = i
	q.n++
}

// first returns the occupied slot holding the earliest wheel event: the
// first set occupancy bit at or after base's slot, wrapping around once.
// The wheel must be non-empty.
//
//voyager:noalloc
func (q *eventQueue) first() int {
	p := int(q.base) & wheelMask
	w := p >> 6
	if m := q.words[w] >> (p & 63); m != 0 {
		return p + bits.TrailingZeros64(m)
	}
	m := q.summary &^ (1<<(w+1) - 1) // words past w (none when w is the last)
	if m == 0 {
		m = q.summary // wrapped: every occupied slot lies before p
	}
	w = bits.TrailingZeros64(m)
	return w<<6 + bits.TrailingZeros64(q.words[w])
}

// peek returns the time of the earliest pending event; the queue must be
// non-empty.
//
//voyager:noalloc
func (q *eventQueue) peek() Time {
	if q.n == 0 {
		return q.over[0].at
	}
	return q.slab[q.slots[q.first()].head].at
}

// pop removes the earliest pending event, advances the window to its
// instant, and returns it. The queue must be non-empty.
//
//voyager:noalloc
func (q *eventQueue) pop() (Time, func()) {
	if q.n == 0 {
		q.advance(q.over[0].at)
	}
	s := q.first()
	sl := &q.slots[s]
	i := sl.head
	nd := &q.slab[i]
	at, fn := nd.at, nd.fn
	if sl.head = nd.next; sl.head == 0 {
		if q.words[s>>6] &^= 1 << (s & 63); q.words[s>>6] == 0 {
			q.summary &^= 1 << (s >> 6)
		}
	}
	*nd = wheelNode{next: q.free} // release the closure so the GC can collect it
	q.free = i
	q.n--
	if at != q.base {
		q.advance(at)
	}
	return at, fn
}

// advance moves the window to start at t, which no pending event precedes,
// and moves every overflow event the window now covers into its slot in
// (at, seq) order. Each such slot is empty: it last stood for an instant
// before t. Anything scheduled at the same instant later carries a larger
// seq and queues behind.
//
//voyager:noalloc
func (q *eventQueue) advance(t Time) {
	q.base = t
	for len(q.over) > 0 && q.over[0].at-t < wheelSlots {
		ev := q.over.pop()
		q.link(ev.at, ev.fn)
	}
}
