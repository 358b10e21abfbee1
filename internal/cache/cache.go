// Package cache models the application processor's cache hierarchy (the
// 604e's L1 backed by the 512 KB in-line L2) as a single snoopy MESI,
// set-associative, write-back cache on the node's 60X bus.
//
// The cache is both a bus master (misses, upgrades, writebacks issued on
// behalf of the processor) and a snooper (invalidations and interventions
// for NIU-issued traffic). Intervention on modified data is reflected to
// memory through a writeback sink, mirroring the reflection the memory
// controller performs on real 60X systems.
package cache

import (
	"fmt"
	"math"

	"startvoyager/internal/bus"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

//voyager:noalloc
func rwName(forWrite bool) string {
	if forWrite {
		return "w"
	}
	return "r"
}

// State is a MESI coherence state.
type State uint8

// MESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String names the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config holds cache shape and timing.
type Config struct {
	SizeBytes int      // total capacity
	Assoc     int      // ways per set
	HitTime   sim.Time // load/store hit latency
}

// DefaultConfig returns a 512 KB 4-way cache with 6 ns hits.
func DefaultConfig() Config {
	return Config{SizeBytes: 512 << 10, Assoc: 4, HitTime: 6 * sim.Nanosecond}
}

// setListCap is the room the set list reserves at construction, 24 bytes of
// host memory per entry. Regrowing the list mid-run costs allocation where
// reserving it costs footprint; 64 entries cover the 32-59 sets an mpi-256
// rank fills, and a node filling more (a message-passing node fills ~100)
// regrows it by doubling.
const setListCap = 64

// line is one resident line. Its fields are ordered so that it packs into
// 48 bytes and a 4-way set into 192.
type line struct {
	data  [bus.LineSize]byte
	lru   uint64
	tag   uint32
	state State
}

// Stats counts cache activity.
type Stats struct {
	Hits, Misses, Writebacks, Upgrades uint64
	SnoopInvalidations, Interventions  uint64
}

// Cache is one node's processor-side cache. Overlapping operations from
// multiple processes time-sharing the aP (multitasking workloads) are safe:
// each in-flight operation carries its own pooled transaction record.
type Cache struct {
	b    *bus.Bus
	cfg  Config
	nset uint32
	tick uint64

	// Sets materialize on their first fill: setIdx holds, per set, 0 while
	// it is untouched and otherwise its position in sets, an append-only
	// list of per-set line arrays whose entry 0 is the nil untouched set. An
	// idle set costs 2 bytes. Each line array is its own allocation and is
	// never moved or freed: ensure holds a *line across a blocking fill or
	// writeback, while another Proc time-sharing the aP may fill other sets.
	setIdx []uint16
	sets   [][]line
	node   int // owning node, for trace attribution (SetNode)

	// writebackSink reflects intervention data to memory without a second
	// bus transaction (the controller captures intervention data on real
	// hardware). Set by node assembly to the DRAM backdoor.
	writebackSink func(addr uint32, data []byte)

	// txFree recycles per-operation transaction records (a Transaction plus
	// a line buffer). Each in-flight processor operation takes its own
	// record, so overlapping operations from multitasking processes never
	// share staging state; IssueP blocks until the bus completes the
	// transaction and the bus drops its reference in the same event, so the
	// record can be recycled as soon as IssueP returns.
	txFree []*cacheTx

	// Intervention scratch: the snooped line is snapshotted here at snoop
	// time and served by the prebound ivServeFn during the same bus tenure
	// (the bus serializes transactions, so the snapshot cannot be
	// overwritten before it is served).
	ivData    [bus.LineSize]byte
	ivOff     uint32
	ivServeFn func(*bus.Transaction)

	stats Stats
}

// New creates a cache attached (by the caller) to b.
func New(b *bus.Bus, cfg Config) *Cache {
	nset := cfg.SizeBytes / cfg.Assoc / bus.LineSize
	if nset == 0 || nset&(nset-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", nset))
	}
	if nset > math.MaxUint16 {
		panic(fmt.Sprintf("cache: %d sets exceed the %d a 2-byte set index addresses", nset, math.MaxUint16))
	}
	c := &Cache{b: b, cfg: cfg, nset: uint32(nset),
		setIdx: make([]uint16, nset), sets: make([][]line, 1, setListCap)}
	c.ivServeFn = c.ivServe
	return c
}

// ivServe supplies intervention data snapshotted by SnoopBus.
//
//voyager:noalloc
func (c *Cache) ivServe(tx *bus.Transaction) {
	copy(tx.Data, c.ivData[c.ivOff:])
}

// cacheTx is one in-flight processor-side bus operation: a transaction and
// the line buffer it may carry, recycled through Cache.txFree.
type cacheTx struct {
	tx   bus.Transaction
	data [bus.LineSize]byte
}

//voyager:noalloc
func (c *Cache) getTx() *cacheTx {
	if n := len(c.txFree); n > 0 {
		t := c.txFree[n-1]
		c.txFree = c.txFree[:n-1]
		return t
	}
	return &cacheTx{} //voyager:alloc-ok(pool warm-up; recycled thereafter)
}

//voyager:noalloc
func (c *Cache) putTx(t *cacheTx) {
	t.tx = bus.Transaction{}
	c.txFree = append(c.txFree, t) //voyager:alloc-ok(amortized: pool backing array is retained)
}

// SetWritebackSink installs the memory reflection function.
func (c *Cache) SetWritebackSink(fn func(addr uint32, data []byte)) { c.writebackSink = fn }

// SetNode records the owning node's id for trace attribution.
func (c *Cache) SetNode(id int) { c.node = id }

// cacheMetrics is the cache's metric table.
var cacheMetrics = stats.NewMetrics(
	stats.GaugeOf("hits", func(c *Cache) int64 { return int64(c.stats.Hits) }),
	stats.GaugeOf("misses", func(c *Cache) int64 { return int64(c.stats.Misses) }),
	stats.GaugeOf("writebacks", func(c *Cache) int64 { return int64(c.stats.Writebacks) }),
	stats.GaugeOf("upgrades", func(c *Cache) int64 { return int64(c.stats.Upgrades) }),
	stats.GaugeOf("snoop_invalidations", func(c *Cache) int64 { return int64(c.stats.SnoopInvalidations) }),
	stats.GaugeOf("interventions", func(c *Cache) int64 { return int64(c.stats.Interventions) }),
)

// RegisterMetrics registers the cache's counters under r.
func (c *Cache) RegisterMetrics(r *stats.Registry) { cacheMetrics.Register(r, c) }

// Stats returns a snapshot of counters.
func (c *Cache) Stats() Stats { return c.stats }

// set returns addr's set, which is nil until first filled — lookups over a
// nil set simply miss, so the read path never materializes state.
//
//voyager:noalloc
func (c *Cache) set(addr uint32) []line {
	return c.sets[c.setIdx[(addr/bus.LineSize)&(c.nset-1)]]
}

// setForFill materializes addr's set on its first fill.
//
//voyager:noalloc
func (c *Cache) setForFill(addr uint32) []line {
	si := &c.setIdx[(addr/bus.LineSize)&(c.nset-1)]
	if *si == 0 {
		*si = uint16(len(c.sets))
		c.sets = append(c.sets, make([]line, c.cfg.Assoc)) //voyager:alloc-ok(lazy set materialization; once per touched set)
	}
	return c.sets[*si]
}

//voyager:noalloc
func (c *Cache) tag(addr uint32) uint32 { return addr / bus.LineSize / c.nset }

//voyager:noalloc
func (c *Cache) lookup(addr uint32) *line {
	set, tag := c.set(addr), c.tag(addr)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// victim picks the replacement candidate in addr's set (invalid first, then
// least recently used).
//
//voyager:noalloc
func (c *Cache) victim(addr uint32) *line {
	set := c.setForFill(addr)
	var v *line
	for i := range set {
		if set[i].state == Invalid {
			return &set[i]
		}
		if v == nil || set[i].lru < v.lru {
			v = &set[i]
		}
	}
	return v
}

//voyager:noalloc
func (c *Cache) lineAddr(addr uint32) uint32 { return addr &^ (bus.LineSize - 1) }

// addrOf reconstructs the base address of a resident line.
//
//voyager:noalloc
func (c *Cache) addrOf(l *line, anyAddrInSet uint32) uint32 {
	setIdx := (anyAddrInSet / bus.LineSize) & (c.nset - 1)
	return (l.tag*c.nset + setIdx) * bus.LineSize
}

// Load performs a cached read of len(buf) bytes at addr (may span lines).
//
//voyager:noalloc
func (c *Cache) Load(p *sim.Proc, addr uint32, buf []byte) {
	for len(buf) > 0 {
		la := c.lineAddr(addr)
		off := addr - la
		n := bus.LineSize - int(off)
		if n > len(buf) {
			n = len(buf)
		}
		l := c.ensure(p, la, false)
		copy(buf[:n], l.data[off:])
		p.Delay(c.cfg.HitTime)
		addr += uint32(n)
		buf = buf[n:]
	}
}

// Store performs a cached write of data at addr (may span lines).
//
//voyager:noalloc
func (c *Cache) Store(p *sim.Proc, addr uint32, data []byte) {
	for len(data) > 0 {
		la := c.lineAddr(addr)
		off := addr - la
		n := bus.LineSize - int(off)
		if n > len(data) {
			n = len(data)
		}
		l := c.ensure(p, la, true)
		copy(l.data[off:], data[:n])
		l.state = Modified
		p.Delay(c.cfg.HitTime)
		addr += uint32(n)
		data = data[n:]
	}
}

// ensure makes the line at la resident with (exclusive ownership if
// forWrite) and returns it, performing any bus traffic required.
//
//voyager:noalloc pooled transaction records; IssueP blocks to completion
func (c *Cache) ensure(p *sim.Proc, la uint32, forWrite bool) *line {
	for {
		l := c.lookup(la)
		switch {
		case l != nil && (!forWrite || l.state == Modified || l.state == Exclusive):
			c.stats.Hits++
			c.touch(l)
			return l
		case l != nil && forWrite && l.state == Shared:
			// Upgrade: broadcast a Kill; the line may be stolen while the
			// Kill waits for the bus, in which case retry from scratch.
			c.stats.Upgrades++
			t := c.getTx()
			t.tx = bus.Transaction{Kind: bus.Kill, Addr: la, Master: c}
			c.b.IssueP(p, &t.tx)
			c.putTx(t)
			if l.state == Shared {
				l.state = Exclusive
				c.touch(l)
				c.stats.Hits++
				return l
			}
		default:
			c.stats.Misses++
			if eng := c.b.Engine(); eng.Observed() {
				eng.Instant(c.node, "cache", "miss",
					sim.Hex("addr", uint64(la)), sim.Str("rw", rwName(forWrite)))
			}
			v := c.victim(la)
			if v.state == Modified {
				c.stats.Writebacks++
				wb := c.getTx()
				copy(wb.data[:], v.data[:])
				wb.tx = bus.Transaction{Kind: bus.WriteLine, Addr: c.addrOf(v, la),
					Data: wb.data[:], Master: c}
				v.state = Invalid
				c.b.IssueP(p, &wb.tx)
				c.putTx(wb)
			} else {
				v.state = Invalid
			}
			kind := bus.ReadLine
			if forWrite {
				kind = bus.ReadLineX
			}
			fill := c.getTx()
			fill.tx = bus.Transaction{Kind: kind, Addr: la, Data: fill.data[:], Master: c}
			c.b.IssueP(p, &fill.tx)
			// Another fill may have raced in via a different path; reuse the
			// victim slot chosen above (re-pick if it got filled meanwhile).
			if v.state != Invalid {
				v = c.victim(la)
			}
			v.tag = c.tag(la)
			copy(v.data[:], fill.tx.Data)
			switch {
			case forWrite:
				v.state = Modified
			case fill.tx.SharedSeen:
				// Another agent asserted the shared line (a peer cache or
				// the aBIU for read-only S-COMA lines): no silent upgrade.
				v.state = Shared
			default:
				v.state = Exclusive
			}
			c.putTx(fill)
			c.touch(v)
			return v
		}
	}
}

//voyager:noalloc
func (c *Cache) touch(l *line) {
	c.tick++
	l.lru = c.tick
}

// Flush writes back (if dirty) and invalidates the line containing addr.
//
//voyager:noalloc
func (c *Cache) Flush(p *sim.Proc, addr uint32) {
	la := c.lineAddr(addr)
	l := c.lookup(la)
	if l == nil {
		return
	}
	if l.state == Modified {
		wb := c.getTx()
		copy(wb.data[:], l.data[:])
		wb.tx = bus.Transaction{Kind: bus.WriteLine, Addr: la,
			Data: wb.data[:], Master: c}
		l.state = Invalid
		c.b.IssueP(p, &wb.tx)
		c.putTx(wb)
		return
	}
	l.state = Invalid
}

// LoadUncached performs a cache-inhibited read (1..8 bytes). Like every
// cache access it copies rather than retains the caller's slice: the word
// crosses the bus in the operation's own pooled buffer.
//
//voyager:noalloc
func (c *Cache) LoadUncached(p *sim.Proc, addr uint32, buf []byte) {
	t := c.getTx()
	n := copy(t.data[:], buf)
	t.tx = bus.Transaction{Kind: bus.ReadWord, Addr: addr, Data: t.data[:n], Master: c}
	c.b.IssueP(p, &t.tx)
	copy(buf, t.data[:n])
	c.putTx(t)
}

// StoreUncached performs a cache-inhibited write (1..8 bytes), staged in
// the operation's pooled buffer like LoadUncached.
//
//voyager:noalloc
func (c *Cache) StoreUncached(p *sim.Proc, addr uint32, data []byte) {
	t := c.getTx()
	n := copy(t.data[:], data)
	t.tx = bus.Transaction{Kind: bus.WriteWord, Addr: addr, Data: t.data[:n], Master: c}
	c.b.IssueP(p, &t.tx)
	c.putTx(t)
}

// SnoopBus implements coherence actions for other masters' transactions.
//
//voyager:noalloc
func (c *Cache) SnoopBus(tx *bus.Transaction) bus.Snoop {
	l := c.lookup(c.lineAddr(tx.Addr))
	if l == nil {
		return bus.Snoop{}
	}
	switch tx.Kind {
	case bus.ReadLine:
		if l.state == Modified {
			// Intervene: supply the dirty line, downgrade, reflect to memory.
			copy(c.ivData[:], l.data[:])
			c.ivOff = 0
			addr := c.lineAddr(tx.Addr)
			l.state = Shared
			c.stats.Interventions++
			if c.writebackSink != nil {
				c.writebackSink(addr, c.ivData[:])
			}
			return bus.Snoop{Action: bus.Claim, Intervene: true, Shared: true,
				Latency: c.cfg.HitTime, Serve: c.ivServeFn}
		}
		if l.state == Exclusive {
			l.state = Shared
		}
		return bus.Snoop{Shared: true}
	case bus.ReadLineX:
		if l.state == Modified {
			copy(c.ivData[:], l.data[:])
			c.ivOff = 0
			l.state = Invalid
			c.stats.Interventions++
			c.stats.SnoopInvalidations++
			return bus.Snoop{Action: bus.Claim, Intervene: true, Latency: c.cfg.HitTime,
				Serve: c.ivServeFn}
		}
		l.state = Invalid
		c.stats.SnoopInvalidations++
	case bus.ReadWord:
		if l.state == Modified {
			// Serve an uncached peek from the dirty line; ownership kept.
			copy(c.ivData[:], l.data[:])
			c.ivOff = tx.Addr - c.lineAddr(tx.Addr)
			c.stats.Interventions++
			return bus.Snoop{Action: bus.Claim, Intervene: true, Latency: c.cfg.HitTime,
				Serve: c.ivServeFn}
		}
	case bus.WriteLine, bus.WriteWord, bus.Kill:
		// DMA or another writer: our copy is stale.
		l.state = Invalid
		c.stats.SnoopInvalidations++
	}
	return bus.Snoop{}
}
