package cache

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"startvoyager/internal/bus"
	"startvoyager/internal/mem"
	"startvoyager/internal/sim"
)

type rig struct {
	eng  *sim.Engine
	bus  *bus.Bus
	dram *mem.DRAM
	c    *Cache
	niu  *fakeMaster // a second master to generate foreign traffic
}

type fakeMaster struct{}

func (m *fakeMaster) SnoopBus(*bus.Transaction) bus.Snoop { return bus.Snoop{} }

func newRig(cfg Config) *rig {
	eng := sim.NewEngine()
	b := bus.New(eng, "bus", bus.DefaultConfig())
	d := mem.New(bus.Range{Base: 0, Size: 1 << 20}, 60)
	c := New(b, cfg)
	c.SetWritebackSink(d.Poke)
	niu := &fakeMaster{}
	b.Attach(d)
	b.Attach(c)
	b.Attach(niu)
	return &rig{eng: eng, bus: b, dram: d, c: c, niu: niu}
}

func TestLoadMissThenHit(t *testing.T) {
	r := newRig(DefaultConfig())
	r.dram.Poke(0x100, []byte{1, 2, 3, 4})
	var missT, hitT sim.Time
	r.eng.Spawn("cpu", func(p *sim.Proc) {
		buf := make([]byte, 4)
		start := p.Now()
		r.c.Load(p, 0x100, buf)
		missT = p.Now() - start
		if !bytes.Equal(buf, []byte{1, 2, 3, 4}) {
			t.Errorf("miss data %v", buf)
		}
		start = p.Now()
		r.c.Load(p, 0x104, buf)
		hitT = p.Now() - start
	})
	r.eng.Run()
	if missT <= hitT || hitT != 6 {
		t.Fatalf("miss=%v hit=%v", missT, hitT)
	}
	st := r.c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestStoreWritebackOnEviction(t *testing.T) {
	cfg := Config{SizeBytes: 2 * bus.LineSize, Assoc: 1, HitTime: 6} // 2 sets, direct-mapped
	r := newRig(cfg)
	r.eng.Spawn("cpu", func(p *sim.Proc) {
		r.c.Store(p, 0x0, []byte{0xAA})
		// Same set (set stride = 64B here), forces eviction of line 0x0.
		r.c.Store(p, 0x40, []byte{0xBB})
	})
	r.eng.Run()
	got := make([]byte, 1)
	r.dram.Peek(0x0, got)
	if got[0] != 0xAA {
		t.Fatalf("dirty line not written back: %#x", got[0])
	}
	if r.c.Stats().Writebacks != 1 {
		t.Fatalf("stats %+v", r.c.Stats())
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	r := newRig(DefaultConfig())
	data := []byte("hello, voyager — crosses a line boundary for sure!")
	r.eng.Spawn("cpu", func(p *sim.Proc) {
		r.c.Store(p, 0x1F0, data) // straddles 32B lines
		buf := make([]byte, len(data))
		r.c.Load(p, 0x1F0, buf)
		if !bytes.Equal(buf, data) {
			t.Errorf("round trip failed: %q", buf)
		}
	})
	r.eng.Run()
}

func TestFlushWritesBack(t *testing.T) {
	r := newRig(DefaultConfig())
	r.eng.Spawn("cpu", func(p *sim.Proc) {
		r.c.Store(p, 0x200, []byte{0x55})
		r.c.Flush(p, 0x200)
	})
	r.eng.Run()
	got := make([]byte, 1)
	r.dram.Peek(0x200, got)
	if got[0] != 0x55 {
		t.Fatal("flush did not write back")
	}
	// Line must now be invalid: snooping a foreign write must not see it.
	if l := r.c.lookup(0x200); l != nil {
		t.Fatal("line still resident after flush")
	}
}

func TestSnoopInvalidateOnForeignWrite(t *testing.T) {
	r := newRig(DefaultConfig())
	done := false
	r.eng.Spawn("cpu", func(p *sim.Proc) {
		buf := make([]byte, 4)
		r.c.Load(p, 0x300, buf) // line now E
		// NIU writes the line (e.g. arriving DMA data).
		wr := make([]byte, bus.LineSize)
		wr[0] = 0x77
		r.bus.IssueP(p, &bus.Transaction{Kind: bus.WriteLine, Addr: 0x300, Data: wr, Master: r.niu})
		// Next load must miss and fetch fresh data.
		r.c.Load(p, 0x300, buf)
		if buf[0] != 0x77 {
			t.Errorf("stale data after DMA: %#x", buf[0])
		}
		done = true
	})
	r.eng.Run()
	if !done {
		t.Fatal("did not finish")
	}
	if r.c.Stats().SnoopInvalidations == 0 {
		t.Fatal("no snoop invalidation recorded")
	}
}

func TestInterventionSuppliesDirtyData(t *testing.T) {
	r := newRig(DefaultConfig())
	r.eng.Spawn("test", func(p *sim.Proc) {
		r.c.Store(p, 0x400, []byte{0x42}) // line M in cache, DRAM stale
		// NIU reads the line: the cache must intervene with fresh data.
		tx := &bus.Transaction{Kind: bus.ReadLine, Addr: 0x400,
			Data: make([]byte, bus.LineSize), Master: r.niu}
		r.bus.IssueP(p, tx)
		if tx.Data[0] != 0x42 {
			t.Errorf("intervention data = %#x", tx.Data[0])
		}
	})
	r.eng.Run()
	// Reflection: memory must have been updated too.
	got := make([]byte, 1)
	r.dram.Peek(0x400, got)
	if got[0] != 0x42 {
		t.Fatal("intervention not reflected to DRAM")
	}
	if r.c.Stats().Interventions != 1 {
		t.Fatalf("stats %+v", r.c.Stats())
	}
}

func TestUncachedOpsBypassCache(t *testing.T) {
	r := newRig(DefaultConfig())
	r.dram.Poke(0x500, []byte{9})
	r.eng.Spawn("cpu", func(p *sim.Proc) {
		buf := make([]byte, 1)
		r.c.LoadUncached(p, 0x500, buf)
		if buf[0] != 9 {
			t.Errorf("uncached load got %d", buf[0])
		}
		r.c.StoreUncached(p, 0x500, []byte{10})
	})
	r.eng.Run()
	got := make([]byte, 1)
	r.dram.Peek(0x500, got)
	if got[0] != 10 {
		t.Fatal("uncached store not applied")
	}
	if st := r.c.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("uncached ops touched the cache: %+v", st)
	}
}

func TestUncachedReadSeesDirtyLine(t *testing.T) {
	// An uncached (NIU) read of a line the cache holds Modified must get the
	// cache's data via intervention — this is how the NIU picks up freshly
	// composed message data.
	r := newRig(DefaultConfig())
	r.eng.Spawn("test", func(p *sim.Proc) {
		r.c.Store(p, 0x600, []byte{0x5A})
		tx := &bus.Transaction{Kind: bus.ReadWord, Addr: 0x600,
			Data: make([]byte, 1), Master: r.niu}
		r.bus.IssueP(p, tx)
		if tx.Data[0] != 0x5A {
			t.Errorf("uncached read got %#x", tx.Data[0])
		}
	})
	r.eng.Run()
}

// Property: a random sequence of cached/uncached loads and stores behaves
// like a flat byte array (the cache is transparent), including under
// interleaved foreign whole-line DMA writes.
func TestCacheTransparencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{SizeBytes: 4 * 1024, Assoc: 2, HitTime: 6} // tiny: lots of evictions
		r := newRig(cfg)
		ref := make([]byte, 1<<14)
		okc := true
		r.eng.Spawn("cpu", func(p *sim.Proc) {
			for i := 0; i < 300; i++ {
				addr := uint32(rng.Intn(len(ref) - 64))
				n := 1 + rng.Intn(48)
				switch rng.Intn(4) {
				case 0: // cached store
					data := make([]byte, n)
					rng.Read(data)
					copy(ref[addr:], data)
					r.c.Store(p, addr, data)
				case 1: // cached load
					buf := make([]byte, n)
					r.c.Load(p, addr, buf)
					if !bytes.Equal(buf, ref[addr:addr+uint32(n)]) {
						okc = false
						return
					}
				case 2: // foreign DMA line write
					la := addr &^ (bus.LineSize - 1)
					data := make([]byte, bus.LineSize)
					rng.Read(data)
					copy(ref[la:], data)
					r.bus.IssueP(p, &bus.Transaction{Kind: bus.WriteLine, Addr: la,
						Data: data, Master: r.niu})
				case 3: // flush
					r.c.Flush(p, addr)
				}
			}
		})
		r.eng.Run()
		return okc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestLineSize pins the line record at 48 bytes, so a 4-way set costs 192
// bytes of host memory: a touched set is the cache's largest lazily built
// state.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 48 {
		t.Errorf("a line record is %d bytes, want 48", got)
	}
	if got := unsafe.Sizeof([4]line{}); got != 192 {
		t.Errorf("a 4-way set is %d bytes, want 192", got)
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Modified.String() != "M" ||
		Shared.String() != "S" || Exclusive.String() != "E" {
		t.Fatal("state names wrong")
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way, 2-set cache: lines mapping to set 0 are 0x00, 0x80, 0x100...
	cfg := Config{SizeBytes: 4 * bus.LineSize, Assoc: 2, HitTime: 6}
	r := newRig(cfg)
	r.eng.Spawn("cpu", func(p *sim.Proc) {
		buf := make([]byte, 1)
		r.c.Load(p, 0x000, buf) // A
		r.c.Load(p, 0x080, buf) // B (same set)
		r.c.Load(p, 0x000, buf) // touch A: B becomes LRU
		r.c.Load(p, 0x100, buf) // C evicts B
		missesBefore := r.c.Stats().Misses
		r.c.Load(p, 0x000, buf) // A must still be resident
		if r.c.Stats().Misses != missesBefore {
			t.Error("LRU evicted the recently used line")
		}
		r.c.Load(p, 0x080, buf) // B was evicted: must miss
		if r.c.Stats().Misses != missesBefore+1 {
			t.Error("expected a miss on the evicted line")
		}
	})
	r.eng.Run()
}

func TestAssociativityAvoidsConflict(t *testing.T) {
	// Two addresses in the same set must coexist in a 2-way cache but
	// thrash in a direct-mapped one of the same size.
	misses := func(assoc int) uint64 {
		cfg := Config{SizeBytes: 8 * bus.LineSize, Assoc: assoc, HitTime: 6}
		r := newRig(cfg)
		r.eng.Spawn("cpu", func(p *sim.Proc) {
			buf := make([]byte, 1)
			stride := uint32(8 * bus.LineSize / assoc) // same-set stride
			for i := 0; i < 6; i++ {
				r.c.Load(p, 0x0, buf)
				r.c.Load(p, stride, buf)
			}
		})
		r.eng.Run()
		return r.c.Stats().Misses
	}
	direct := misses(1)
	twoWay := misses(2)
	if twoWay >= direct {
		t.Fatalf("associativity did not help: %d vs %d misses", twoWay, direct)
	}
	if twoWay != 2 {
		t.Fatalf("2-way misses = %d, want 2 (cold only)", twoWay)
	}
}

func TestNonPowerOfTwoSetsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	eng := sim.NewEngine()
	b := bus.New(eng, "b", bus.DefaultConfig())
	New(b, Config{SizeBytes: 3 * bus.LineSize, Assoc: 1, HitTime: 1})
}

// TestTooManySetsPanics: the 2-byte set index addresses at most 65,535
// sets, so a larger geometry is refused at construction.
func TestTooManySetsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	eng := sim.NewEngine()
	b := bus.New(eng, "b", bus.DefaultConfig())
	New(b, Config{SizeBytes: 1 << 16 * bus.LineSize, Assoc: 1, HitTime: 1})
}

// stall retries every transaction on one line while hold is set, as the
// aBIU retries an S-COMA access whose line the sP is still fetching.
type stall struct {
	line uint32
	hold bool
}

func (s *stall) SnoopBus(tx *bus.Transaction) bus.Snoop {
	if s.hold && tx.Addr&^(bus.LineSize-1) == s.line {
		return bus.Snoop{Action: bus.Retry}
	}
	return bus.Snoop{}
}

// TestLinesStayPutAcrossBlockedFill: while one Proc blocks in a fill, a
// second Proc time-sharing the aP fills more sets than the set list reserves,
// so the list regrows under the first Proc's chosen line. The line must not
// move: the blocked store completes into the line the cache keeps, so a
// later load and the flushed memory both hold it. Every load returns the
// bytes memory holds.
func TestLinesStayPutAcrossBlockedFill(t *testing.T) {
	const others = setListCap + 16
	r := newRig(DefaultConfig())
	st := &stall{line: 0x8000, hold: true}
	r.bus.Attach(st)
	addrOf := func(k int) uint32 { return uint32(k)*bus.LineSize + 8 }
	for k := 1; k <= others; k++ {
		r.dram.Poke(addrOf(k), []byte{byte(k), byte(k >> 8), 0x5a, 0xa5})
	}
	stored := []byte{0xde, 0xad, 0xbe, 0xef}
	storeDone := false
	r.eng.Spawn("blocked", func(p *sim.Proc) {
		r.c.Store(p, st.line+4, stored)
		storeDone = true
		got := make([]byte, len(stored))
		r.c.Load(p, st.line+4, got)
		if !bytes.Equal(got, stored) {
			t.Errorf("load after the blocked store = %x, want %x", got, stored)
		}
		r.c.Flush(p, st.line)
	})
	r.eng.Spawn("filler", func(p *sim.Proc) {
		got, want := make([]byte, 4), make([]byte, 4)
		for k := 1; k <= others; k++ {
			r.c.Load(p, addrOf(k), got)
			r.dram.Peek(addrOf(k), want)
			if !bytes.Equal(got, want) {
				t.Errorf("load of set %d = %x, memory holds %x", k, got, want)
			}
		}
		if storeDone {
			t.Error("the store's fill finished before the other sets filled")
		}
		st.hold = false
	})
	r.eng.Run()
	got := make([]byte, len(stored))
	r.dram.Peek(st.line+4, got)
	if !bytes.Equal(got, stored) {
		t.Fatalf("memory after flush = %x, want the stored %x", got, stored)
	}
	if len(r.c.sets) <= setListCap {
		t.Fatalf("set list holds %d entries; the test needs it past its reserved %d", len(r.c.sets), setListCap)
	}
}
