// Package mem models a node's DRAM behind the stock memory controller. The
// controller claims bus transactions falling in its range and services them
// with a fixed access latency. A zero-time backdoor lets workload setup and
// test verification touch memory without perturbing simulated timing.
//
// Backing storage is paged and demand-allocated: a page materializes on its
// first write, and reads of never-written pages observe zeros — exactly what
// a dense zero-initialized array would return. This keeps a node's host
// footprint proportional to the memory its software actually touches, so
// thousand-node machines fit in RAM (ROADMAP item 2).
package mem

import (
	"fmt"

	"startvoyager/internal/bus"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// Backing-page geometry. 64 KB keeps the page table tiny (8 bytes per page —
// 2 KB for a 16 MB node) while a queue-only workload still touches just a
// handful of pages.
const (
	pageShift = 16
	pageSize  = 1 << pageShift
)

// DRAM is main memory plus its controller, attached to a node bus.
type DRAM struct {
	rng      bus.Range
	pages    [][]byte // demand-allocated; nil pages read as zeros
	resident int      // pages materialized so far
	latency  sim.Time
	aliases  []alias

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
	d := &DRAM{rng: rng, pages: make([][]byte, numPages), latency: latency}
	d.serveFn = d.serve
	return d
}

// DeviceName implements bus.Device.
func (d *DRAM) DeviceName() string { return "dram" }

// Range returns the address range this controller claims.
func (d *DRAM) Range() bus.Range { return d.rng }

// ResidentBytes returns the host bytes materialized for backing storage —
// the demand-paged footprint, as opposed to the modeled capacity Range().Size.
func (d *DRAM) ResidentBytes() int { return d.resident * pageSize }

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

// readAt copies backing bytes at off into buf, clamped to the modeled size;
// unmaterialized pages read as zeros.
func (d *DRAM) readAt(off uint32, buf []byte) {
	if rem := uint64(d.rng.Size) - uint64(off); uint64(len(buf)) > rem {
		buf = buf[:rem]
	}
	for len(buf) > 0 {
		po := off & (pageSize - 1)
		n := pageSize - int(po)
		if n > len(buf) {
			n = len(buf)
		}
		if pg := d.pages[off>>pageShift]; pg != nil {
			copy(buf[:n], pg[po:])
		} else {
			for i := range buf[:n] {
				buf[i] = 0
			}
		}
		off += uint32(n)
		buf = buf[n:]
	}
}

// writeAt copies buf into backing storage at off, clamped to the modeled
// size, materializing pages as needed.
func (d *DRAM) writeAt(off uint32, data []byte) {
	if rem := uint64(d.rng.Size) - uint64(off); uint64(len(data)) > rem {
		data = data[:rem]
	}
	for len(data) > 0 {
		po := off & (pageSize - 1)
		n := pageSize - int(po)
		if n > len(data) {
			n = len(data)
		}
		pg := d.pages[off>>pageShift]
		if pg == nil {
			pg = make([]byte, pageSize)
			d.pages[off>>pageShift] = pg
			d.resident++
		}
		copy(pg[po:], data[:n])
		off += uint32(n)
		data = data[n:]
	}
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

// RegisterMetrics registers the controller's access counters under r.
func (d *DRAM) RegisterMetrics(r *stats.Registry) {
	r.Gauge("reads", func() int64 { return int64(d.reads) })
	r.Gauge("writes", func() int64 { return int64(d.writes) })
}

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
