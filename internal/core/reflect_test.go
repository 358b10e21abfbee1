package core

import (
	"bytes"
	"testing"

	"startvoyager/internal/cluster"
	"startvoyager/internal/firmware"
	"startvoyager/internal/niu/biu"
	"startvoyager/internal/sim"
	"startvoyager/internal/trace"
)

func reflectMachine(t *testing.T, nodes int, mode biu.ReflectMode) *Machine {
	t.Helper()
	cfg := cluster.DefaultConfig(nodes)
	cfg.ReflectSize = 64 << 10
	m := NewMachineConfig(cfg)
	// Node 0 exports the whole window to everyone else.
	subs := []int{}
	for i := 1; i < nodes; i++ {
		subs = append(subs, i)
	}
	m.API(0).ReflectConfigure(mode, []biu.ReflectEntry{{From: 0, To: 64 << 10, Subs: subs}})
	return m
}

func testEagerPropagation(t *testing.T, mode biu.ReflectMode) {
	t.Helper()
	m := reflectMachine(t, 3, mode)
	data := []byte("reflected write!................") // one line
	seen := make([][]byte, 3)
	m.Go(0, "writer", func(p *sim.Proc, a *API) {
		a.ReflectStore(p, 0x100, data)
	})
	for i := 1; i < 3; i++ {
		i := i
		m.Go(i, "reader", func(p *sim.Proc, a *API) {
			buf := make([]byte, len(data))
			for {
				a.ReflectLoadUncached(p, 0x100, buf[:8])
				if buf[0] != 0 {
					break
				}
			}
			p.Delay(2000) // let the full line land
			a.ReflectLoad(p, 0x100, buf)
			seen[i] = buf
		})
	}
	m.Run()
	for i := 1; i < 3; i++ {
		if !bytes.Equal(seen[i], data) {
			t.Fatalf("mode %v: node %d saw %q", mode, i, seen[i])
		}
	}
}

func TestReflectFirmwareMode(t *testing.T) {
	testEagerPropagation(t, biu.ReflectFirmware)
}

func TestReflectHardwareMode(t *testing.T) {
	testEagerPropagation(t, biu.ReflectHardware)
}

func TestReflectHardwareUsesNoSP(t *testing.T) {
	m := reflectMachine(t, 2, biu.ReflectHardware)
	m.Go(0, "writer", func(p *sim.Proc, a *API) {
		for i := 0; i < 20; i++ {
			a.ReflectStore(p, uint32(i*64), make([]byte, 32))
		}
	})
	m.Run()
	if sp := m.Nodes[0].FW.BusyTime(); sp != 0 {
		t.Fatalf("hardware mode consumed %v of sP time", sp)
	}
	got := make([]byte, 1)
	m.Nodes[1].Dram.Peek(0xA000_0000, got) // window alias resolves
	if m.Nodes[0].ABIU.Stats().ReflectHw == 0 {
		t.Fatal("no hardware reflections recorded")
	}
}

func TestReflectFirmwareUsesSP(t *testing.T) {
	m := reflectMachine(t, 2, biu.ReflectFirmware)
	m.Go(0, "writer", func(p *sim.Proc, a *API) {
		a.ReflectStore(p, 0, make([]byte, 32))
	})
	m.Run()
	if sp := m.Nodes[0].FW.BusyTime(); sp == 0 {
		t.Fatal("firmware mode used no sP time")
	}
	if m.Reflects[0].Stats().Propagated != 1 {
		t.Fatalf("stats %+v", m.Reflects[0].Stats())
	}
}

func TestReflectWordStore(t *testing.T) {
	m := reflectMachine(t, 2, biu.ReflectHardware)
	m.Go(0, "writer", func(p *sim.Proc, a *API) {
		a.ReflectStoreWord(p, 0x200, []byte("wordwrt!"))
	})
	var got [8]byte
	m.Go(1, "reader", func(p *sim.Proc, a *API) {
		for got[0] == 0 {
			a.ReflectLoadUncached(p, 0x200, got[:])
		}
	})
	m.Run()
	if !bytes.Equal(got[:], []byte("wordwrt!")) {
		t.Fatalf("got %q", got)
	}
}

func TestReflectDeferredFlush(t *testing.T) {
	m := reflectMachine(t, 2, biu.ReflectDeferred)
	region := make([]byte, 4096)
	for i := range region {
		region[i] = byte(i * 3)
	}
	m.Go(0, "writer", func(p *sim.Proc, a *API) {
		// Dirty only two separated lines, then write the full content of
		// those lines and flush: only 2 lines must travel.
		a.ReflectStore(p, 128, region[128:160])
		a.ReflectStore(p, 2048, region[2048:2080])
		a.ReflectFlush(p, 0, 4096, 0xF1)
		_, pl := a.RecvNotify(p)
		if len(pl) != 8 {
			t.Errorf("bad flush notify %v", pl)
		}
	})
	m.Run()
	if got := m.Reflects[0].Stats().DiffLines; got != 2 {
		t.Fatalf("flushed %d lines, want 2", got)
	}
	chk := make([]byte, 32)
	m.Nodes[1].Dram.Peek(0xA000_0000+128, chk)
	if !bytes.Equal(chk, region[128:160]) {
		t.Fatal("dirty line not propagated")
	}
	// Clean lines must NOT have been sent.
	m.Nodes[1].Dram.Peek(0xA000_0000+256, chk)
	if !bytes.Equal(chk, make([]byte, 32)) {
		t.Fatal("clean line was propagated")
	}
	// A second flush finds nothing dirty.
	m.Go(0, "w2", func(p *sim.Proc, a *API) {
		a.ReflectFlush(p, 0, 4096, 0xF2)
		a.RecvNotify(p)
	})
	m.Run()
	if got := m.Reflects[0].Stats().DiffLines; got != 2 {
		t.Fatalf("second flush re-sent lines: total %d", got)
	}
}

func TestReflectWithoutWindowPanics(t *testing.T) {
	m := NewMachine(2) // no ReflectSize
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.API(0).ReflectConfigure(biu.ReflectHardware, nil)
}

func TestOverflowQueue(t *testing.T) {
	m := NewMachine(2)
	// Virtual destination 230 names node 1's logical queue 555, which is
	// resident nowhere: messages must arrive via the DRAM overflow ring.
	m.API(0).MapVirtualDest(230, 1, 555)
	var src int
	var lq uint16
	var got []byte
	m.Go(0, "sender", func(p *sim.Proc, a *API) {
		a.SendVirtual(p, 230, []byte("nonresident"))
	})
	m.Go(1, "receiver", func(p *sim.Proc, a *API) {
		src, lq, got = a.RecvOverflow(p)
	})
	m.Run()
	if src != 0 || lq != 555 || string(got) != "nonresident" {
		t.Fatalf("overflow: src=%d lq=%d payload=%q", src, lq, got)
	}
	if m.MissRings[1].Stats().Written != 1 {
		t.Fatalf("ring stats %+v", m.MissRings[1].Stats())
	}
	if m.Nodes[1].Ctrl.Stats().RxMisses != 1 {
		t.Fatalf("ctrl stats %+v", m.Nodes[1].Ctrl.Stats())
	}
}

func TestOverflowMany(t *testing.T) {
	m := NewMachine(2)
	m.API(0).MapVirtualDest(240, 1, 900)
	const count = 30
	m.Go(0, "sender", func(p *sim.Proc, a *API) {
		for i := 0; i < count; i++ {
			a.SendVirtual(p, 240, []byte{byte(i)})
		}
	})
	var order []byte
	m.Go(1, "receiver", func(p *sim.Proc, a *API) {
		for i := 0; i < count; i++ {
			_, _, pl := a.RecvOverflow(p)
			order = append(order, pl[0])
		}
	})
	m.Run()
	for i, v := range order {
		if v != byte(i) {
			t.Fatalf("overflow reordered at %d: %d", i, v)
		}
	}
}

func TestOverflowRingFullDropsChain(t *testing.T) {
	// Traced messages to a non-resident queue that nobody reads: the DRAM
	// ring takes MissRingEntries of them and the firmware loses the rest.
	// Each lost message's chain must end dropped (why=ring-full), not at
	// the sP's msg-consume as a delivery.
	m := NewMachine(2)
	tb := m.Trace(1 << 16)
	m.API(0).MapVirtualDest(240, 1, 900)
	const count = firmware.MissRingEntries + 6
	m.Go(0, "sender", func(p *sim.Proc, a *API) {
		for i := 0; i < count; i++ {
			a.SendVirtual(p, 240, []byte{byte(i)})
		}
	})
	m.Run()
	if st := m.MissRings[1].Stats(); st.Written != firmware.MissRingEntries || st.Dropped != 6 {
		t.Fatalf("ring stats %+v, want %d written and 6 dropped", st, firmware.MissRingEntries)
	}
	pa := trace.AnalyzePaths(tb.Events())
	delivered, dropped, inflight, _ := pa.Counts()
	if delivered != firmware.MissRingEntries || dropped != 6 || inflight != 0 {
		t.Fatalf("chains: %d delivered, %d dropped, %d in flight; want %d, 6, 0",
			delivered, dropped, inflight, firmware.MissRingEntries)
	}
	for _, mp := range pa.Msgs {
		if mp.Outcome == trace.Dropped && (mp.DropWhy != "ring-full" || mp.DstNode != 1) {
			t.Fatalf("chain %d dropped at node %d with why=%q, want node 1, ring-full",
				mp.ID, mp.DstNode, mp.DropWhy)
		}
	}
}

func TestScomaMigratoryOptimization(t *testing.T) {
	// Two nodes take turns incrementing a counter line. Without the
	// optimization every turn costs a Get (recall-share) followed by a GetX
	// (invalidate + upgrade); with it the read miss is granted exclusively
	// and the upgrade disappears.
	run := func(migratory bool) (getx uint64, dur sim.Time) {
		cfg := cluster.DefaultConfig(2)
		cfg.ScomaMigratory = migratory
		m := NewMachineConfig(cfg)
		m.Nodes[0].Dram.Poke(8<<20, []byte{0})
		const rounds = 8
		incr := func(p *sim.Proc, a *API) {
			var b [1]byte
			a.ScomaLoad(p, 0, b[:])
			b[0]++
			a.ScomaStore(p, 0, b[:])
		}
		m.Go(0, "w0", func(p *sim.Proc, a *API) {
			for i := 0; i < rounds; i++ {
				incr(p, a)
				a.SendBasic(p, 1, []byte{1})
				a.RecvBasic(p)
			}
		})
		m.Go(1, "w1", func(p *sim.Proc, a *API) {
			for i := 0; i < rounds; i++ {
				a.RecvBasic(p)
				incr(p, a)
				a.SendBasic(p, 0, []byte{1})
			}
		})
		m.Run()
		var v [1]byte
		m.Go(0, "check", func(p *sim.Proc, a *API) { a.ScomaLoad(p, 0, v[:]) })
		dur = m.Eng.Now()
		m.Run()
		if v[0] != 2*rounds {
			t.Fatalf("migratory=%v: counter=%d want %d", migratory, v[0], 2*rounds)
		}
		return m.Scomas[0].Stats().GetXs, dur
	}
	gx0, d0 := run(false)
	gx1, d1 := run(true)
	if gx1 >= gx0 {
		t.Fatalf("migratory did not cut upgrades: %d vs %d", gx1, gx0)
	}
	if d1 >= d0 {
		t.Fatalf("migratory did not cut time: %v vs %v", d1, d0)
	}
	t.Logf("GetX: %d -> %d, time: %v -> %v", gx0, gx1, d0, d1)
}

func TestScomaEvictWritesBackDirtyData(t *testing.T) {
	m := NewMachine(2)
	// Line 0 homed on node 0; node 1 writes it, evicts it, then node 0
	// reads: the dirty data must have survived the round trip through the
	// home backing copy.
	var got [8]byte
	m.Go(1, "writer", func(p *sim.Proc, a *API) {
		a.ScomaStore(p, 0, []byte("dirtyevt"))
		a.ScomaEvict(p, 0, 32)
		// Wait for the eviction to settle, then signal the reader.
		p.Delay(20_000)
		a.SendBasic(p, 0, []byte("go"))
	})
	m.Go(0, "reader", func(p *sim.Proc, a *API) {
		a.RecvBasic(p)
		a.ScomaLoad(p, 0, got[:])
	})
	m.Run()
	if !bytes.Equal(got[:], []byte("dirtyevt")) {
		t.Fatalf("data lost through eviction: %q", got)
	}
	if m.Scomas[0].Stats().Evicts != 1 {
		t.Fatalf("stats %+v", m.Scomas[0].Stats())
	}
	// Node 1's copy must be gone: its cls state is Invalid again.
	if st := m.Nodes[1].ClsSram.Get(0); st.String() != "inv" {
		t.Fatalf("evicted line state %v", st)
	}
	// Home backing must hold the data (node 0's DRAM at the backing base).
	var back [8]byte
	m.Nodes[0].Dram.Peek(8<<20, back[:])
	if !bytes.Equal(back[:], []byte("dirtyevt")) {
		t.Fatalf("backing copy %q", back)
	}
}

func TestScomaEvictCleanSharer(t *testing.T) {
	m := NewMachine(2)
	m.Nodes[0].Dram.Poke(8<<20, []byte("original"))
	m.Go(1, "sharer", func(p *sim.Proc, a *API) {
		var b [8]byte
		a.ScomaLoad(p, 0, b[:]) // become a sharer
		a.ScomaEvict(p, 0, 32)
		p.Delay(20_000)
		// Re-reading after eviction must miss and fetch again, correctly.
		var b2 [8]byte
		a.ScomaLoad(p, 0, b2[:])
		if !bytes.Equal(b2[:], []byte("original")) {
			t.Errorf("refetch after evict got %q", b2)
		}
	})
	m.Run()
	if m.Scomas[0].Stats().Evicts != 1 {
		t.Fatalf("stats %+v", m.Scomas[0].Stats())
	}
}

func TestScomaEvictUntouchedLineIsNoop(t *testing.T) {
	m := NewMachine(2)
	m.Go(1, "e", func(p *sim.Proc, a *API) {
		a.ScomaEvict(p, 64, 32) // line nobody holds
	})
	m.Run()
	if m.Scomas[0].Stats().Evicts != 1 {
		t.Fatalf("evict not processed: %+v", m.Scomas[0].Stats())
	}
}
