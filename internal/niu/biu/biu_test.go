package biu

import (
	"bytes"
	"encoding/binary"
	"testing"

	"startvoyager/internal/arctic"
	"startvoyager/internal/bus"
	"startvoyager/internal/cache"
	"startvoyager/internal/mem"
	"startvoyager/internal/niu/ctrl"
	"startvoyager/internal/niu/sram"
	"startvoyager/internal/niu/txrx"
	"startvoyager/internal/sim"
)

// Node-local address map used in these tests.
var testMap = Map{
	Sram:      bus.Range{Base: 0xF000_0000, Size: 64 << 10},
	Ptr:       bus.Range{Base: 0xF010_0000, Size: 4 << 10},
	ExpressTx: bus.Range{Base: 0xF020_0000, Size: 1 << 19},
	ExpressRx: bus.Range{Base: 0xF030_0000, Size: 4 << 10},
	Numa:      bus.Range{Base: 0x4000_0000, Size: 1 << 30},
	Scoma:     bus.Range{Base: 0x8000_0000, Size: 1 << 20},
}

type netSink struct {
	injected [][]byte
	dsts     []int
}

func (n *netSink) Inject(dst int, pri arctic.Priority, wire []byte, tag sim.MsgTag) {
	n.injected = append(n.injected, wire)
	n.dsts = append(n.dsts, dst)
}
func (n *netSink) Poke()                      {}
func (n *netSink) Ready(arctic.Priority) bool { return true }

type noInts struct{}

func (noInts) RxInterrupt(int)   {}
func (noInts) ProtViolation(int) {}

type rig struct {
	eng  *sim.Engine
	b    *bus.Bus
	dram *mem.DRAM
	ch   *cache.Cache
	aS   *sram.SRAM
	sS   *sram.SRAM
	cls  *sram.Cls
	c    *ctrl.Ctrl
	a    *ABIU
	s    *SBIU
	net  *netSink
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine()
	b := bus.New(eng, "apbus", bus.DefaultConfig())
	dram := mem.New(bus.Range{Base: 0, Size: 4 << 20}, 60)
	// Back the S-COMA window with the top 1 MB of DRAM.
	dram.AddAlias(testMap.Scoma, 3<<20)
	ch := cache.New(b, cache.DefaultConfig())
	ch.SetWritebackSink(dram.Poke)
	aS := sram.New("aSRAM", 64<<10)
	sS := sram.New("sSRAM", 64<<10)
	cls := sram.NewCls(int(testMap.Scoma.Size) / bus.LineSize)
	c := ctrl.New(eng, 0, aS, sS, cls, ctrl.DefaultConfig(),
		15*sim.Nanosecond, 100*sim.Nanosecond, 256, testMap.Scoma)
	a := NewABIU(eng, 0, b, c, aS, cls, testMap, DefaultConfig())
	net := &netSink{}
	c.SetPorts(a, net, noInts{})
	b.Attach(dram)
	b.Attach(ch)
	b.Attach(a)
	return &rig{eng: eng, b: b, dram: dram, ch: ch, aS: aS, sS: sS, cls: cls,
		c: c, a: a, s: NewSBIU(a, c), net: net}
}

func TestSramMapping(t *testing.T) {
	r := newRig(t)
	r.eng.Spawn("ap", func(p *sim.Proc) {
		// Cached store, flush, then uncached read-back: the data must land
		// in the aSRAM itself.
		r.ch.Store(p, 0xF000_0100, []byte("voyager!"))
		r.ch.Flush(p, 0xF000_0100)
		buf := make([]byte, 8)
		r.ch.LoadUncached(p, 0xF000_0100, buf)
		if !bytes.Equal(buf, []byte("voyager!")) {
			t.Errorf("uncached readback %q", buf)
		}
	})
	r.eng.Run()
	got := make([]byte, 8)
	r.aS.Read(0x100, got)
	if !bytes.Equal(got, []byte("voyager!")) {
		t.Fatalf("aSRAM content %q", got)
	}
	if r.a.Stats().SramWrites == 0 || r.a.Stats().SramReads == 0 {
		t.Fatalf("stats %+v", r.a.Stats())
	}
}

func TestPointerRegion(t *testing.T) {
	r := newRig(t)
	r.c.ConfigureTx(2, ctrl.TxConfig{Buf: r.aS, Base: 0x1000, EntryBytes: 96,
		Entries: 8, ShadowBase: 0x80, RawAllowed: true,
		AllowedDests: ^uint64(0), Enabled: true})
	// Compose a raw message in slot 0 directly, then update the producer
	// through the pointer region.
	slot := make([]byte, 96)
	binary.BigEndian.PutUint16(slot[0:], 1)
	slot[2] = ctrl.SlotFlagRaw
	slot[3] = 2
	copy(slot[8:], "ok")
	r.aS.Write(0x1000, slot)
	r.eng.Spawn("ap", func(p *sim.Proc) {
		var w [8]byte
		binary.BigEndian.PutUint64(w[:], 1)
		r.ch.StoreUncached(p, testMap.Ptr.Base+2*16, w[:])
		// Poll the pointer pair until the consumer catches up.
		for {
			r.ch.LoadUncached(p, testMap.Ptr.Base+2*16, w[:])
			v := binary.BigEndian.Uint64(w[:])
			if uint32(v) == 1 { // consumer == 1
				break
			}
			p.Delay(100)
		}
	})
	r.eng.Run()
	if len(r.net.injected) != 1 {
		t.Fatalf("injected %d", len(r.net.injected))
	}
	if r.a.Stats().PtrUpdates != 1 {
		t.Fatalf("stats %+v", r.a.Stats())
	}
}

func TestExpressTxRegion(t *testing.T) {
	r := newRig(t)
	r.c.ConfigureTx(1, ctrl.TxConfig{Buf: r.aS, Base: 0x2000, EntryBytes: 8,
		Entries: 16, ShadowBase: 0x90, Express: true, Translate: true,
		AndMask: 0xFFFF, AllowedDests: ^uint64(0), Enabled: true})
	r.c.WriteTransEntry(5, ctrl.TransEntry{PhysNode: 3, LogicalQ: 11, Valid: true})
	r.eng.Spawn("ap", func(p *sim.Proc) {
		// Single uncached store: queue 1, virtual dest 5, 5-byte payload.
		addr := testMap.ExpressTx.Base + uint32(1<<12|5)<<3
		r.ch.StoreUncached(p, addr, []byte{9, 8, 7, 6, 5, 0, 0, 0})
	})
	r.eng.Run()
	if len(r.net.injected) != 1 || r.net.dsts[0] != 3 {
		t.Fatalf("express: injected %d dsts %v", len(r.net.injected), r.net.dsts)
	}
	var f txrx.Frame
	_ = txrx.DecodeInto(&f, r.net.injected[0])
	if f.LogicalQ != 11 || !bytes.Equal(f.Payload, []byte{9, 8, 7, 6, 5}) {
		t.Fatalf("frame %+v", f)
	}
}

func TestExpressRxRegion(t *testing.T) {
	r := newRig(t)
	r.c.ConfigureRx(4, ctrl.RxConfig{Buf: r.aS, Base: 0x3000, EntryBytes: 8,
		Entries: 16, ShadowBase: 0xA0, Logical: 77, Express: true, Enabled: true})
	w, _ := txrx.EncodeInto(&txrx.Frame{Kind: txrx.Data, SrcNode: 2, LogicalQ: 77,
		Payload: []byte{1, 2, 3, 4, 5}}, nil)

	r.c.TryReceive(w, sim.MsgTag{})
	var got [8]byte
	r.eng.Spawn("ap", func(p *sim.Proc) {
		p.Delay(1000) // let the message land
		r.ch.LoadUncached(p, testMap.ExpressRx.Base+4*8, got[:])
	})
	r.eng.Run()
	if got[0] != 0x80 || binary.BigEndian.Uint16(got[1:]) != 2 ||
		!bytes.Equal(got[3:8], []byte{1, 2, 3, 4, 5}) {
		t.Fatalf("express rx word %v", got)
	}
	// A second load returns the canonical empty message.
	var empty [8]byte
	r.eng.Spawn("ap2", func(p *sim.Proc) {
		r.ch.LoadUncached(p, testMap.ExpressRx.Base+4*8, empty[:])
	})
	r.eng.Run()
	if empty != [8]byte{} {
		t.Fatalf("empty word %v", empty)
	}
}

func TestNumaCaptureAndFill(t *testing.T) {
	r := newRig(t)
	addr := testMap.Numa.Base + 0x4000
	var got [8]byte
	fin := false
	r.eng.Spawn("ap", func(p *sim.Proc) {
		r.ch.LoadUncached(p, addr, got[:]) // stalls until firmware supplies
		fin = true
	})
	// "Firmware": wait for the captured op, then supply data.
	r.eng.Spawn("sp", func(p *sim.Proc) {
		op := r.s.Captured().Pop(p)
		if op.Kind != bus.ReadWord || op.Addr != addr || op.Scoma {
			t.Errorf("captured %+v", op)
		}
		p.Delay(2000) // pretend remote latency
		r.a.SupplyFill(addr, []byte("numadata"))
	})
	r.eng.Run()
	if !fin {
		t.Fatal("NUMA load never completed")
	}
	if !bytes.Equal(got[:], []byte("numadata")) {
		t.Fatalf("got %q", got)
	}
	st := r.a.Stats()
	if st.NumaCaptured != 1 || st.NumaFills != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestNumaCapturedOnceDespiteRetries(t *testing.T) {
	r := newRig(t)
	addr := testMap.Numa.Base + 0x8000
	r.eng.Spawn("ap", func(p *sim.Proc) {
		var b [8]byte
		r.ch.LoadUncached(p, addr, b[:])
	})
	r.eng.Spawn("sp", func(p *sim.Proc) {
		r.s.Captured().Pop(p)
		p.Delay(5000) // many retry rounds elapse
		if r.s.Captured().Len() != 0 {
			t.Error("duplicate capture")
		}
		r.a.SupplyFill(addr, make([]byte, 8))
	})
	r.eng.Run()
	if r.a.Stats().NumaCaptured != 1 {
		t.Fatalf("captured %d times", r.a.Stats().NumaCaptured)
	}
}

func TestNumaAckedWrite(t *testing.T) {
	// A NUMA store retries until the firmware acknowledges it (the paper's
	// "retried until the sP explicitly stops the retries"), so a completed
	// store is globally visible.
	r := newRig(t)
	addr := testMap.Numa.Base + 0x100
	var doneAt sim.Time
	r.eng.Spawn("ap", func(p *sim.Proc) {
		r.ch.StoreUncached(p, addr, []byte("remwrite"))
		doneAt = p.Now()
	})
	var ackAt sim.Time
	r.eng.Spawn("sp", func(p *sim.Proc) {
		op := r.s.Captured().Pop(p)
		if op.Kind != bus.WriteWord || !bytes.Equal(op.Data, []byte("remwrite")) {
			t.Errorf("op %+v", op)
		}
		p.Delay(3000) // pretend home round trip
		ackAt = p.Now()
		r.a.SupplyWriteAck(addr &^ 7)
	})
	r.eng.Run()
	if doneAt == 0 || doneAt < ackAt {
		t.Fatalf("store completed at %v, before the ack at %v", doneAt, ackAt)
	}
	if r.a.Stats().NumaAcks != 1 {
		t.Fatalf("stats %+v", r.a.Stats())
	}
}

func TestScomaStateCheck(t *testing.T) {
	r := newRig(t)
	addr := testMap.Scoma.Base + 64 // line 2
	// Pre-place data in the backing frames.
	r.dram.Poke(addr, []byte("scomadat"))
	var got [8]byte
	fin := false
	r.eng.Spawn("ap", func(p *sim.Proc) {
		r.ch.Load(p, addr, got[:]) // cached read: ReadLine, checked by aBIU
		fin = true
	})
	r.eng.Spawn("sp", func(p *sim.Proc) {
		op := r.s.Captured().Pop(p)
		if !op.Scoma || op.Kind != bus.ReadLine {
			t.Errorf("captured %+v", op)
		}
		// Protocol: mark pending, fetch remotely (pretend), then mark RO.
		r.cls.Set(2, sram.CLPending)
		p.Delay(3000)
		r.cls.Set(2, sram.CLReadOnly)
		r.a.ClearScomaNotify(2)
	})
	r.eng.Run()
	if !fin {
		t.Fatal("S-COMA read never completed")
	}
	if !bytes.Equal(got[:], []byte("scomadat")) {
		t.Fatalf("got %q", got)
	}
	if r.a.Stats().ScomaRetries == 0 || r.a.Stats().ScomaCaptured != 1 {
		t.Fatalf("stats %+v", r.a.Stats())
	}
}

// TestScomaRetryZeroAllocs: while a line is Pending in clsSRAM the aBIU
// answers Retry, and each retried bus round (the tenure, the DRAM's claim
// of the aliased line, the backoff) allocates nothing.
func TestScomaRetryZeroAllocs(t *testing.T) {
	r := newRig(t)
	addr := testMap.Scoma.Base + 64 // line 2
	r.cls.Set(2, sram.CLPending)
	var got [8]byte
	r.eng.Spawn("ap", func(p *sim.Proc) { r.ch.Load(p, addr, got[:]) })
	cfg := bus.DefaultConfig()
	round := cfg.RetryBackoff + sim.Time(cfg.AddrCycles)*cfg.CycleTime // one snoop per round
	r.eng.RunUntil(round)
	before := r.a.Stats().ScomaRetries
	allocs := testing.AllocsPerRun(100, func() { r.eng.RunUntil(r.eng.Now() + round) })
	if n := r.a.Stats().ScomaRetries - before; n != 101 {
		t.Fatalf("%d retries in 101 rounds", n)
	}
	if allocs != 0 {
		t.Fatalf("a retried S-COMA bus round allocates %v, want 0", allocs)
	}
}

func TestScomaWriteNeedsRW(t *testing.T) {
	r := newRig(t)
	addr := testMap.Scoma.Base + 128 // line 4
	r.cls.Set(4, sram.CLReadOnly)
	fin := false
	r.eng.Spawn("ap", func(p *sim.Proc) {
		r.ch.Store(p, addr, []byte{1}) // ReadLineX: RO must stall & notify
		fin = true
	})
	r.eng.Spawn("sp", func(p *sim.Proc) {
		op := r.s.Captured().Pop(p)
		if op.Kind != bus.ReadLineX {
			t.Errorf("captured %+v (want upgrade)", op)
		}
		p.Delay(1000)
		r.cls.Set(4, sram.CLReadWrite)
		r.a.ClearScomaNotify(4)
	})
	r.eng.Run()
	if !fin {
		t.Fatal("upgrade never completed")
	}
}

func TestScomaReadWriteStateProceeds(t *testing.T) {
	r := newRig(t)
	addr := testMap.Scoma.Base + 256
	r.cls.Set(8, sram.CLReadWrite)
	r.eng.Spawn("ap", func(p *sim.Proc) {
		r.ch.Store(p, addr, []byte("fastpath"))
		r.ch.Flush(p, addr) // writeback (WriteLine) must proceed too
	})
	r.eng.Run()
	got := make([]byte, 8)
	r.dram.Peek(addr, got)
	if !bytes.Equal(got, []byte("fastpath")) {
		t.Fatalf("got %q", got)
	}
	if r.a.Stats().ScomaRetries != 0 || r.s.Captured().Len() != 0 {
		t.Fatal("RW-state access was interfered with")
	}
}

func TestCtrlMastersViaABIU(t *testing.T) {
	// A CTRL block read must reach DRAM through the aBIU without triggering
	// the aBIU's own decode (it is the master).
	r := newRig(t)
	want := bytes.Repeat([]byte{0x3C}, 128)
	r.dram.Poke(0x1000, want)
	done := false
	r.eng.Schedule(0, func() {
		r.c.IssueCommand(0, &ctrl.BlockRead{Base: ctrl.Base{Done: func() { done = true }},
			DramAddr: 0x1000, SramOff: 0x5000, Len: 128})
	})
	r.eng.Run()
	got := make([]byte, 128)
	r.aS.Read(0x5000, got)
	if !bytes.Equal(got, want) {
		t.Fatal("block read through aBIU failed")
	}
	if !done || r.a.Stats().CtrlBusOps != 4 {
		t.Fatalf("done=%v busops=%d", done, r.a.Stats().CtrlBusOps)
	}
}
