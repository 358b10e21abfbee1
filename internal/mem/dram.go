// Package mem models a node's DRAM behind the stock memory controller. The
// controller claims bus transactions falling in its range and services them
// with a fixed access latency. A zero-time backdoor lets workload setup and
// test verification touch memory without perturbing simulated timing.
//
// Backing storage is paged and demand-allocated: a 1 KB sub-page
// materializes on its first non-zero write, and reads of bytes never
// written with data observe zeros — exactly what a dense zero-initialized
// array would return. This keeps a node's host footprint proportional to
// the data its software actually stores, so thousand-node machines fit in
// RAM, and an S-COMA fill of a never-written line stores nothing.
package mem

import (
	"fmt"

	"startvoyager/internal/bus"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// Backing geometry. A 64 KB page keeps the page index tiny (40 bytes for
// the 256 pages of a 16 MB node); each page is a lazily allocated block of
// 1 KB sub-pages, so a one-line S-COMA fill or a scattered store
// materializes 1 KB rather than 64 KB.
const (
	pageShift   = 16
	pageSize    = 1 << pageShift
	subShift    = 10
	subSize     = 1 << subShift
	subsPerPage = pageSize / subSize
)

// page is one 64 KB page's sub-page table; nil sub-pages read as zeros.
type page [subsPerPage]*[subSize]byte

// DRAM is main memory plus its controller, attached to a node bus.
type DRAM struct {
	rng bus.Range
	// Pages materialize on their first non-zero write: written marks the
	// written pages, and pages holds them in page order, each at its page's
	// rank in written. An unwritten page reads as zeros. The list reserves
	// nothing: none of the benchmark's workloads writes a node's DRAM, and
	// a node that does grows the list by doubling, 8 bytes a page beside
	// the page's own 512-byte table and 1 KB sub-page.
	written sim.Sparse
	pages   []*page
	latency sim.Time
	aliases []alias

	reads, writes uint64

	// srvOff stages the claimed backing offset for serve, so a claim needs
	// no per-snoop closure. One field suffices: the bus is held from the
	// snoop through the data phase, and the DRAM sits on one bus.
	srvOff  uint32
	serveFn func(tx *bus.Transaction)
}

// alias maps an extra claimed address range onto backing-array offsets
// (StarT-Voyager's S-COMA region is ordinary DRAM pages appearing at a
// second physical window).
type alias struct {
	rng    bus.Range
	toBase uint32
}

// New creates size bytes of DRAM at base with the given first-access latency.
func New(rng bus.Range, latency sim.Time) *DRAM {
	numPages := (uint64(rng.Size) + pageSize - 1) >> pageShift
	d := &DRAM{rng: rng, written: sim.NewSparse(int(numPages)), latency: latency}
	d.serveFn = d.serve
	return d
}

// AddAlias makes the controller also claim rng, serving it from the backing
// array starting at offset toBase. Used to back the S-COMA window with DRAM
// frames.
func (d *DRAM) AddAlias(rng bus.Range, toBase uint32) {
	if uint64(toBase)+uint64(rng.Size) > uint64(d.rng.Size) {
		panic(fmt.Sprintf("mem: alias %#x+%#x exceeds DRAM size %#x", toBase, rng.Size, d.rng.Size))
	}
	d.aliases = append(d.aliases, alias{rng: rng, toBase: toBase})
}

// resolve maps a claimed bus address to a backing-array offset.
func (d *DRAM) resolve(addr uint32) (uint32, bool) {
	if d.rng.Contains(addr) {
		return d.rng.Offset(addr), true
	}
	for _, a := range d.aliases {
		if a.rng.Contains(addr) {
			return a.toBase + a.rng.Offset(addr), true
		}
	}
	return 0, false
}

// sub returns the sub-page holding off, or nil if it was never written.
func (d *DRAM) sub(off uint32) *[subSize]byte {
	if i, ok := d.written.Find(int(off >> pageShift)); ok {
		return d.pages[i][off>>subShift&(subsPerPage-1)]
	}
	return nil
}

// readAt copies backing bytes at off into buf, clamped to the modeled size;
// unmaterialized sub-pages read as zeros.
func (d *DRAM) readAt(off uint32, buf []byte) {
	if rem := uint64(d.rng.Size) - uint64(off); uint64(len(buf)) > rem {
		buf = buf[:rem]
	}
	for len(buf) > 0 {
		so := off & (subSize - 1)
		n := min(len(buf), subSize-int(so))
		if sp := d.sub(off); sp != nil {
			copy(buf[:n], sp[so:])
		} else {
			clear(buf[:n])
		}
		off += uint32(n)
		buf = buf[n:]
	}
}

// writeAt copies data into backing storage at off, clamped to the modeled
// size. A chunk materializes its page and sub-page only if it holds a
// non-zero byte: an absent sub-page already reads as the zeros it would
// store.
func (d *DRAM) writeAt(off uint32, data []byte) {
	if rem := uint64(d.rng.Size) - uint64(off); uint64(len(data)) > rem {
		data = data[:rem]
	}
	for len(data) > 0 {
		chunk := data[:min(len(data), subSize-int(off&(subSize-1)))]
		sp := d.sub(off)
		if sp == nil && !allZero(chunk) {
			sp = d.materialize(off)
		}
		if sp != nil {
			copy(sp[off&(subSize-1):], chunk)
		}
		off += uint32(len(chunk))
		data = data[len(chunk):]
	}
}

// materialize allocates the sub-page holding off, and its page if needed.
func (d *DRAM) materialize(off uint32) *[subSize]byte {
	p := int(off >> pageShift)
	i, ok := d.written.Find(p)
	if !ok {
		d.written.Insert(p)
		d.pages = sim.InsertAt(d.pages, i, new(page))
	}
	pg := d.pages[i]
	sp := new([subSize]byte)
	pg[off>>subShift&(subsPerPage-1)] = sp
	return sp
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// SnoopBus claims transactions in range and services them from the array.
func (d *DRAM) SnoopBus(tx *bus.Transaction) bus.Snoop {
	if tx.Kind == bus.Kill {
		return bus.Snoop{}
	}
	off, ok := d.resolve(tx.Addr)
	if !ok {
		return bus.Snoop{}
	}
	d.srvOff = off
	return bus.Snoop{Action: bus.Claim, Latency: d.latency, Serve: d.serveFn}
}

// serve is the data phase of the claim SnoopBus staged.
func (d *DRAM) serve(tx *bus.Transaction) {
	switch tx.Kind {
	case bus.ReadLine, bus.ReadLineX, bus.ReadWord:
		d.readAt(d.srvOff, tx.Data)
		d.reads++
	case bus.WriteLine, bus.WriteWord:
		d.writeAt(d.srvOff, tx.Data)
		d.writes++
	}
}

// Accesses returns the number of read and write transactions served.
func (d *DRAM) Accesses() (reads, writes uint64) { return d.reads, d.writes }

// dramMetrics is the controller's metric table.
var dramMetrics = stats.NewMetrics(
	stats.GaugeOf("reads", func(d *DRAM) int64 { return int64(d.reads) }),
	stats.GaugeOf("writes", func(d *DRAM) int64 { return int64(d.writes) }),
)

// RegisterMetrics registers the controller's access counters under r.
func (d *DRAM) RegisterMetrics(r *stats.Registry) { dramMetrics.Register(r, d) }

// Peek copies memory at addr into buf without consuming simulated time.
func (d *DRAM) Peek(addr uint32, buf []byte) {
	off := d.mustOffset(addr, len(buf))
	d.readAt(off, buf)
}

// Poke writes buf at addr without consuming simulated time.
func (d *DRAM) Poke(addr uint32, buf []byte) {
	off := d.mustOffset(addr, len(buf))
	d.writeAt(off, buf)
}

func (d *DRAM) mustOffset(addr uint32, n int) uint32 {
	off, ok := d.resolve(addr)
	if !ok || uint64(off)+uint64(n) > uint64(d.rng.Size) {
		panic(fmt.Sprintf("mem: access %#x+%d outside DRAM %#x..%#x and aliases",
			addr, n, d.rng.Base, d.rng.End()))
	}
	return off
}
