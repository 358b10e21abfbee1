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

import (
	"fmt"

	"startvoyager/internal/sim"
)

// Backing-page geometry: a bank materializes in 1 KB pages on first write,
// so a bank costs host memory only for the regions its software writes (a
// queue ring at the bottom, a pointer-shadow region far above it) rather
// than a prefix up to its highest written byte.
const (
	pageShift = 10
	pageSize  = 1 << pageShift
)

// SRAM is a byte-addressed buffer memory backed by demand-allocated pages.
// Bytes on a never-written page read as the bank's image (NewOver), and as
// zeros past it, identical to a dense array initialized from the image.
type SRAM struct {
	name string
	size int

	// Pages materialize on first write: written marks the written pages,
	// and pages holds them in page order, each at its page's rank in
	// written.
	written sim.Sparse
	pages   []*[pageSize]byte
	// image holds the read-only pages an untouched page reads; the first
	// write to such a page copies it before writing.
	image []*[pageSize]byte
}

// pageListCap is the room the page list reserves at construction, 8 bytes
// of host memory per entry. Regrowing the list mid-run costs allocation
// where reserving it costs footprint. 16 entries cover every page a node
// writes in either bank at any machine size: a count over MPI traffic up to
// 1024 nodes and S-COMA and R-Basic traffic up to 256 found at most 4 aSRAM
// and 7 sSRAM pages per node. The translation table is the machine's image
// (NewOver), so a node copies a table page only when it rewrites an entry,
// and a 1024-node sSRAM no longer regrows the list for its 32 KB table.
const pageListCap = 16

// Image is a read-only bank prefix that several banks read until each
// writes its own copy: the machine's default translation table, which every
// node's sSRAM starts from. NewImage copies its data, and nothing writes an
// Image afterwards.
type Image struct {
	size  int
	pages []*[pageSize]byte
}

// NewImage returns an image of data, read at bank offset 0.
func NewImage(data []byte) *Image {
	n := (len(data) + pageSize - 1) >> pageShift
	buf := make([]byte, n<<pageShift)
	copy(buf, data)
	img := &Image{size: len(data), pages: make([]*[pageSize]byte, n)}
	for i := range img.pages {
		img.pages[i] = (*[pageSize]byte)(buf[i<<pageShift:])
	}
	return img
}

// New allocates an SRAM of size bytes that reads as zeros until written.
func New(name string, size int) *SRAM { return NewOver(name, size, nil) }

// NewOver allocates an SRAM of size bytes that reads as img (nil reads as
// zeros) until written. Banks over one image share its pages: a bank holds
// its own copy only of the pages it writes.
func NewOver(name string, size int, img *Image) *SRAM {
	n := (size + pageSize - 1) >> pageShift
	s := &SRAM{name: name, size: size, written: sim.NewSparse(n),
		pages: make([]*[pageSize]byte, 0, pageListCap)}
	if img != nil {
		if img.size > size {
			panic(fmt.Sprintf("sram: %d-byte image exceeds %s's %d bytes", img.size, name, size))
		}
		s.image = img.pages
	}
	return s
}

// Name returns the bank's name ("aSRAM", "sSRAM").
func (s *SRAM) Name() string { return s.name }

// Size returns the bank capacity in bytes.
func (s *SRAM) Size() int { return s.size }

// page returns the page holding off as reads see it: the bank's own copy
// once written, else the image's page, else nil for zeros.
func (s *SRAM) page(off uint32) *[pageSize]byte {
	p := int(off >> pageShift)
	if i, ok := s.written.Find(p); ok {
		return s.pages[i]
	}
	if p < len(s.image) {
		return s.image[p]
	}
	return nil
}

// Read copies len(buf) bytes at off into buf.
func (s *SRAM) Read(off uint32, buf []byte) {
	s.check(off, len(buf))
	for len(buf) > 0 {
		po := off & (pageSize - 1)
		n := min(len(buf), pageSize-int(po))
		if pg := s.page(off); pg != nil {
			copy(buf[:n], pg[po:])
		} else {
			clear(buf[:n])
		}
		off += uint32(n)
		buf = buf[n:]
	}
}

// Write copies data into the bank at off, materializing pages as needed: a
// page's first write copies what it read until then.
func (s *SRAM) Write(off uint32, data []byte) {
	s.check(off, len(data))
	for len(data) > 0 {
		p := int(off >> pageShift)
		i, ok := s.written.Find(p)
		if !ok {
			pg := new([pageSize]byte)
			if p < len(s.image) {
				*pg = *s.image[p]
			}
			s.written.Insert(p)
			s.pages = sim.InsertAt(s.pages, i, pg)
		}
		n := copy(s.pages[i][off&(pageSize-1):], data)
		off += uint32(n)
		data = data[n:]
	}
}

// ByteAt returns the byte at off.
func (s *SRAM) ByteAt(off uint32) byte {
	s.check(off, 1)
	if pg := s.page(off); pg != nil {
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
// region, two lines to a byte (line 2k in the low nibble, 2k+1 in the
// high). It is read combinationally by the aBIU on every aP bus operation
// and written under sP (or, in approach 5, block-unit) control. The state
// array materializes on the first Set of a state other than CLInvalid: a
// node that never touches S-COMA pays nothing, and reads before then return
// CLInvalid — the zero value a dense array would hold anyway.
type Cls struct {
	lines  int
	states []byte // two states per byte; nil until first Set
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
	return LineState(c.states[idx>>1] >> nibble(idx) & 0xf)
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
		c.states = make([]byte, (c.lines+1)/2)
	}
	b := &c.states[idx>>1]
	*b = *b&^(0xf<<nibble(idx)) | byte(st)<<nibble(idx)
}

// nibble returns the shift of line idx's state within its byte.
func nibble(idx int) uint { return uint(idx&1) * 4 }

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
