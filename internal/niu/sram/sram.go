// Package sram models the NIU's buffer memories: the two dual-ported banks
// (aSRAM on the aP bus side, sSRAM on the sP side, both also ported to the
// IBus) and the single-ported clsSRAM that holds cache-line state bits for
// S-COMA memory.
//
// Port contention is not modeled here: the IBus (a sim.Resource owned by
// CTRL) is the serialization point for all NIU-internal data movement, and
// the 60X buses serialize processor-side accesses, matching the dual-ported
// parts' ability to serve both sides concurrently.
package sram

import "fmt"

// Backing-page geometry: a bank materializes in 1 KB pages on first write,
// so a bank costs host memory only for the regions its software touches (a
// queue ring at the bottom, a translation table, a pointer-shadow region far
// above them) rather than a prefix up to its highest written byte.
const (
	pageShift = 10
	pageSize  = 1 << pageShift
)

// SRAM is a byte-addressed buffer memory backed by demand-allocated pages.
// Bytes on a never-written page read as zeros, identical to a dense
// zero-initialized array.
type SRAM struct {
	name  string
	size  int
	pages []*[pageSize]byte // nil until first written
}

// New allocates an SRAM of size bytes.
func New(name string, size int) *SRAM {
	return &SRAM{name: name, size: size, pages: make([]*[pageSize]byte, (size+pageSize-1)>>pageShift)}
}

// Name returns the bank's name ("aSRAM", "sSRAM").
func (s *SRAM) Name() string { return s.name }

// Size returns the bank capacity in bytes.
func (s *SRAM) Size() int { return s.size }

// Read copies len(buf) bytes at off into buf.
func (s *SRAM) Read(off uint32, buf []byte) {
	s.check(off, len(buf))
	for len(buf) > 0 {
		po := off & (pageSize - 1)
		n := min(len(buf), pageSize-int(po))
		if pg := s.pages[off>>pageShift]; pg != nil {
			copy(buf[:n], pg[po:])
		} else {
			clear(buf[:n])
		}
		off += uint32(n)
		buf = buf[n:]
	}
}

// Write copies data into the bank at off, materializing pages as needed.
func (s *SRAM) Write(off uint32, data []byte) {
	s.check(off, len(data))
	for len(data) > 0 {
		po := off & (pageSize - 1)
		pg := s.pages[off>>pageShift]
		if pg == nil {
			pg = new([pageSize]byte)
			s.pages[off>>pageShift] = pg
		}
		n := copy(pg[po:], data)
		off += uint32(n)
		data = data[n:]
	}
}

// ByteAt returns the byte at off.
func (s *SRAM) ByteAt(off uint32) byte {
	s.check(off, 1)
	if pg := s.pages[off>>pageShift]; pg != nil {
		return pg[off&(pageSize-1)]
	}
	return 0
}

// Append appends the n bytes at off to dst and returns the extended slice,
// growing dst exactly as append would.
func (s *SRAM) Append(dst []byte, off uint32, n int) []byte {
	s.check(off, n)
	dst = append(dst, make([]byte, n)...)
	s.Read(off, dst[len(dst)-n:])
	return dst
}

func (s *SRAM) check(off uint32, n int) {
	if uint64(off)+uint64(n) > uint64(s.size) {
		panic(fmt.Sprintf("sram: %s access %#x+%d beyond size %#x", s.name, off, n, s.size))
	}
}

// LineState is a 4-bit S-COMA cache-line state stored in clsSRAM. The NIU
// interprets states through the aBIU's action table, so the encoding itself
// carries no fixed meaning to the hardware — these named values are the
// convention used by the default S-COMA firmware protocol.
type LineState uint8

// Default S-COMA state encoding.
const (
	// CLInvalid: line not present locally; reads and writes must stall.
	CLInvalid LineState = 0
	// CLPending: a fill has been requested; stall without re-notifying sP.
	CLPending LineState = 1
	// CLReadOnly: local copy valid for reads; writes must upgrade.
	CLReadOnly LineState = 2
	// CLReadWrite: local copy exclusive; all accesses proceed.
	CLReadWrite LineState = 3
)

// String names the default states.
func (s LineState) String() string {
	switch s {
	case CLInvalid:
		return "inv"
	case CLPending:
		return "pend"
	case CLReadOnly:
		return "ro"
	case CLReadWrite:
		return "rw"
	default:
		return fmt.Sprintf("state%d", uint8(s))
	}
}

// Cls is the clsSRAM: one 4-bit state per 32-byte cache line of the S-COMA
// region. It is read combinationally by the aBIU on every aP bus operation
// and written under sP (or, in approach 5, block-unit) control. The state
// array materializes on the first Set: a node that never touches S-COMA pays
// nothing, and reads before then return CLInvalid — the zero value a dense
// array would hold anyway.
type Cls struct {
	lines  int
	states []LineState // nil until first Set
}

// NewCls sizes the state memory for the given number of cache lines.
func NewCls(lines int) *Cls {
	return &Cls{lines: lines}
}

// Lines returns the number of tracked lines.
func (c *Cls) Lines() int { return c.lines }

// Get returns the state for line idx.
func (c *Cls) Get(idx int) LineState {
	c.check(idx)
	if c.states == nil {
		return CLInvalid
	}
	return c.states[idx]
}

// Set stores the state for line idx.
func (c *Cls) Set(idx int, st LineState) {
	c.check(idx)
	if st > 15 {
		panic(fmt.Sprintf("sram: clsSRAM state %d exceeds 4 bits", st))
	}
	if c.states == nil {
		if st == CLInvalid {
			return
		}
		c.states = make([]LineState, c.lines)
	}
	c.states[idx] = st
}

// SetRange stores st for lines [from, to).
func (c *Cls) SetRange(from, to int, st LineState) {
	for i := from; i < to; i++ {
		c.Set(i, st)
	}
}

func (c *Cls) check(idx int) {
	if idx < 0 || idx >= c.lines {
		panic(fmt.Sprintf("sram: clsSRAM line %d out of range %d", idx, c.lines))
	}
}
