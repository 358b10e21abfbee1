package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"startvoyager/internal/cluster"
	"startvoyager/internal/firmware"
	"startvoyager/internal/prof"
	"startvoyager/internal/sim"
	"startvoyager/internal/trace"
)

func newMachine(t *testing.T, nodes int) *Machine {
	t.Helper()
	return NewMachine(nodes)
}

func TestBasicPingPong(t *testing.T) {
	m := newMachine(t, 2)
	var rtt sim.Time
	m.Go(0, "ping", func(p *sim.Proc, a *API) {
		start := p.Now()
		a.SendBasic(p, 1, []byte("ping"))
		src, pl := a.RecvBasic(p)
		rtt = p.Now() - start
		if src != 1 || !bytes.Equal(pl, []byte("pong")) {
			t.Errorf("got %d %q", src, pl)
		}
	})
	m.Go(1, "pong", func(p *sim.Proc, a *API) {
		src, pl := a.RecvBasic(p)
		if src != 0 || !bytes.Equal(pl, []byte("ping")) {
			t.Errorf("got %d %q", src, pl)
		}
		a.SendBasic(p, 0, []byte("pong"))
	})
	m.Run()
	if rtt == 0 {
		t.Fatal("ping-pong did not complete")
	}
	// Sanity: a round trip on this machine should be microseconds, not
	// milliseconds (catching gross timing regressions).
	if rtt > 50*sim.Microsecond {
		t.Fatalf("rtt = %v, implausibly slow", rtt)
	}
	t.Logf("basic rtt = %v", rtt)
}

func TestBasicManyMessagesInOrder(t *testing.T) {
	m := newMachine(t, 2)
	const count = 100 // several times the queue depth
	m.Go(0, "sender", func(p *sim.Proc, a *API) {
		for i := 0; i < count; i++ {
			a.SendBasic(p, 1, []byte(fmt.Sprintf("m%03d", i)))
		}
	})
	var got []string
	m.Go(1, "receiver", func(p *sim.Proc, a *API) {
		for i := 0; i < count; i++ {
			_, pl := a.RecvBasic(p)
			got = append(got, string(pl))
		}
	})
	m.Run()
	if len(got) != count {
		t.Fatalf("received %d of %d", len(got), count)
	}
	for i, s := range got {
		if s != fmt.Sprintf("m%03d", i) {
			t.Fatalf("out of order at %d: %q", i, s)
		}
	}
}

func TestExpressPingPong(t *testing.T) {
	m := newMachine(t, 2)
	done := false
	m.Go(0, "ping", func(p *sim.Proc, a *API) {
		a.SendExpress(p, 1, []byte{1, 2, 3, 4, 5})
		src, pl := a.RecvExpress(p)
		if src != 1 || pl != [5]byte{5, 4, 3, 2, 1} {
			t.Errorf("got %d %v", src, pl)
		}
		done = true
	})
	m.Go(1, "pong", func(p *sim.Proc, a *API) {
		src, pl := a.RecvExpress(p)
		if src != 0 || pl != [5]byte{1, 2, 3, 4, 5} {
			t.Errorf("got %d %v", src, pl)
		}
		a.SendExpress(p, 0, []byte{5, 4, 3, 2, 1})
	})
	m.Run()
	if !done {
		t.Fatal("express ping-pong did not complete")
	}
}

func TestExpressCheaperThanBasic(t *testing.T) {
	// The paper's point of Express: one uncached store versus compose +
	// flush + pointer update. Compare one-way aP send occupancy.
	m := newMachine(t, 2)
	var basicCost, expressCost sim.Time
	m.Go(0, "sender", func(p *sim.Proc, a *API) {
		start := a.Node().APMeter.BusyTime()
		a.SendBasic(p, 1, []byte("12345"))
		basicCost = a.Node().APMeter.BusyTime() - start
		start = a.Node().APMeter.BusyTime()
		a.SendExpress(p, 1, []byte("12345"))
		expressCost = a.Node().APMeter.BusyTime() - start
	})
	m.Run()
	if expressCost >= basicCost {
		t.Fatalf("express send (%v) not cheaper than basic send (%v)", expressCost, basicCost)
	}
	t.Logf("send occupancy: basic=%v express=%v", basicCost, expressCost)
}

func TestTagOn(t *testing.T) {
	m := newMachine(t, 2)
	tag := bytes.Repeat([]byte{0xAB}, 48)
	m.Go(0, "sender", func(p *sim.Proc, a *API) {
		a.StageASram(p, 0x8000, tag)
		a.SendTagOn(p, 1, []byte("hdr"), 0x8000, 48)
	})
	var got []byte
	m.Go(1, "receiver", func(p *sim.Proc, a *API) {
		_, got = a.RecvBasic(p)
	})
	m.Run()
	if len(got) != 3+48 {
		t.Fatalf("payload %d bytes", len(got))
	}
	if !bytes.Equal(got[:3], []byte("hdr")) || !bytes.Equal(got[3:], tag) {
		t.Fatal("tagon payload wrong")
	}
}

func TestDmaPush(t *testing.T) {
	m := newMachine(t, 2)
	const size = 32 << 10 // multiple pages
	src := make([]byte, size)
	for i := range src {
		src[i] = byte(i*13 + 7)
	}
	m.API(0).Poke(0x10_0000, src)
	var notifySrc int
	var notifyPl []byte
	m.Go(0, "sender", func(p *sim.Proc, a *API) {
		a.DmaPush(p, 1, 0x10_0000, 0x20_0000, size, 0xCAFE)
	})
	m.Go(1, "receiver", func(p *sim.Proc, a *API) {
		notifySrc, notifyPl = a.RecvNotify(p)
	})
	m.Run()
	if notifyPl == nil {
		t.Fatal("no completion notification")
	}
	_ = notifySrc
	got := make([]byte, size)
	m.API(1).Peek(0x20_0000, got)
	if !bytes.Equal(got, src) {
		t.Fatal("DMA data corrupted")
	}
	if m.Dmas[0].Stats().Transfers != 1 {
		t.Fatalf("dma stats %+v", m.Dmas[0].Stats())
	}
}

func TestDmaPull(t *testing.T) {
	m := newMachine(t, 2)
	const size = 4096
	src := make([]byte, size)
	for i := range src {
		src[i] = byte(i ^ 0x5A)
	}
	m.API(1).Poke(0x30_0000, src) // data lives on node 1
	m.Go(0, "puller", func(p *sim.Proc, a *API) {
		a.Dma(p, firmware.DmaRequest{Pull: true, PeerNode: 1,
			SrcAddr: 0x30_0000, DstAddr: 0x40_0000, Len: size, Tag: 1})
		a.RecvNotify(p) // we are the destination of the push back
	})
	m.Run()
	got := make([]byte, size)
	m.API(0).Peek(0x40_0000, got)
	if !bytes.Equal(got, src) {
		t.Fatal("DMA pull data corrupted")
	}
}

func TestNumaRemoteAccess(t *testing.T) {
	m := newMachine(t, 2)
	// NUMA segment 1MB per node, homed at NumaLocalBase (4MB) in each DRAM.
	// Offset 1MB+64 is homed on node 1.
	off := uint32(1<<20 + 64)
	m.Nodes[1].Dram.Poke(4<<20+64, []byte("remote64"))
	var got [8]byte
	m.Go(0, "reader", func(p *sim.Proc, a *API) {
		a.NumaLoad(p, off, got[:])
		a.NumaStore(p, off, []byte("written!"))
		// Read back through the window again (fill was consumed).
		a.NumaLoad(p, off, got[:])
	})
	m.Run()
	if !bytes.Equal(got[:], []byte("written!")) {
		t.Fatalf("got %q", got)
	}
	back := make([]byte, 8)
	m.Nodes[1].Dram.Peek(4<<20+64, back)
	if !bytes.Equal(back, []byte("written!")) {
		t.Fatalf("home memory %q", back)
	}
	if m.Numas[0].Stats().Reads != 2 || m.Numas[1].Stats().HomeReads != 2 {
		t.Fatalf("numa stats %+v %+v", m.Numas[0].Stats(), m.Numas[1].Stats())
	}
}

func TestScomaReadSharing(t *testing.T) {
	m := newMachine(t, 4)
	// Global line 0 is homed on node 0; its backing copy lives there.
	m.Nodes[0].Dram.Poke(8<<20, []byte("sharedln"))
	results := make([][]byte, 4)
	for i := 0; i < 4; i++ {
		i := i
		m.Go(i, "reader", func(p *sim.Proc, a *API) {
			buf := make([]byte, 8)
			a.ScomaLoad(p, 0, buf)
			results[i] = buf
		})
	}
	m.Run()
	for i, r := range results {
		if !bytes.Equal(r, []byte("sharedln")) {
			t.Fatalf("node %d read %q", i, r)
		}
	}
}

func TestScomaWriteInvalidatesSharers(t *testing.T) {
	m := newMachine(t, 2)
	m.Nodes[0].Dram.Poke(8<<20, bytes.Repeat([]byte{0}, 32))
	var after []byte
	m.Go(0, "writer", func(p *sim.Proc, a *API) {
		buf := make([]byte, 8)
		a.ScomaLoad(p, 0, buf) // both nodes share the line first
		a.Compute(p, 20000)
		a.ScomaStore(p, 0, []byte("newdata!")) // upgrade: invalidates node 1
		// Publish: a barrier message tells node 1 to re-read.
		a.SendBasic(p, 1, []byte("go"))
	})
	m.Go(1, "reader", func(p *sim.Proc, a *API) {
		buf := make([]byte, 8)
		a.ScomaLoad(p, 0, buf)
		a.RecvBasic(p) // wait for the writer's signal
		fresh := make([]byte, 8)
		a.ScomaLoad(p, 0, fresh)
		after = fresh
	})
	m.Run()
	if !bytes.Equal(after, []byte("newdata!")) {
		t.Fatalf("reader saw %q after invalidation", after)
	}
}

func TestScomaExclusiveMigration(t *testing.T) {
	// The line migrates between two writers; each increments a counter.
	m := newMachine(t, 2)
	m.Nodes[0].Dram.Poke(8<<20, []byte{0})
	const rounds = 6
	incr := func(p *sim.Proc, a *API) {
		var b [1]byte
		a.ScomaLoad(p, 0, b[:])
		b[0]++
		a.ScomaStore(p, 0, b[:])
	}
	m.Go(0, "w0", func(p *sim.Proc, a *API) {
		for i := 0; i < rounds; i++ {
			incr(p, a)
			a.SendBasic(p, 1, []byte("t")) // pass the token
			a.RecvBasic(p)
		}
	})
	m.Go(1, "w1", func(p *sim.Proc, a *API) {
		for i := 0; i < rounds; i++ {
			a.RecvBasic(p)
			incr(p, a)
			a.SendBasic(p, 0, []byte("t"))
		}
	})
	m.Run()
	// Final value must be 2*rounds wherever the line ended up; read it back
	// through either node's window by checking the exclusive owner's frame.
	var v [1]byte
	m.Go(0, "check", func(p *sim.Proc, a *API) { a.ScomaLoad(p, 0, v[:]) })
	m.Run()
	if v[0] != 2*rounds {
		t.Fatalf("counter = %d, want %d", v[0], 2*rounds)
	}
}

func TestOccupancyMetering(t *testing.T) {
	m := newMachine(t, 2)
	m.Go(0, "w", func(p *sim.Proc, a *API) {
		a.Compute(p, 1000)
		a.SendBasic(p, 1, []byte("x"))
	})
	m.Go(1, "r", func(p *sim.Proc, a *API) { a.RecvBasic(p) })
	m.Run()
	ap0 := m.Nodes[0].APMeter.BusyTime()
	if ap0 < 1000 {
		t.Fatalf("aP0 busy %v, below compute time", ap0)
	}
	// The sP never ran application work here, but firmware may have been
	// idle; basic messaging must not consume sP time at all.
	if sp := m.Nodes[0].FW.BusyTime(); sp != 0 {
		t.Fatalf("sP0 busy %v on pure hardware messaging", sp)
	}
}

// TestTimeSharedBusyBrackets: two Procs time-share node 0's aP, and B's
// Compute opens while A's is still open. The aP meter and the aP track's
// span cover the union of the two calls, [0, 10.5 us]; each Proc's
// profiler frame covers its own call only, so A's idle delay after its
// Compute is not charged to it.
func TestTimeSharedBusyBrackets(t *testing.T) {
	cfg := cluster.DefaultConfig(2)
	pr := prof.New()
	cfg.Profiler = pr
	m := NewMachineConfig(cfg)
	tb := m.Trace(1 << 12)
	m.Go(0, "A", func(p *sim.Proc, a *API) {
		a.Compute(p, sim.Microsecond)
		p.Delay(5 * sim.Microsecond)
	})
	m.Go(0, "B", func(p *sim.Proc, a *API) {
		p.Delay(500 * sim.Nanosecond)
		a.Compute(p, 10*sim.Microsecond)
	})
	m.Run()
	pr.Finish(m.Eng.Now())

	const union = 10500 * sim.Nanosecond
	if got := m.Nodes[0].APMeter.BusyTime(); got != union {
		t.Errorf("aP0 busy %v, want %v", got, union)
	}
	var spans []trace.Event
	for _, e := range tb.Events() {
		if e.Node == 0 && e.Component == "aP" && e.Kind != trace.Instant {
			spans = append(spans, e)
		}
	}
	if len(spans) != 2 || spans[0].Kind != trace.SpanBegin || spans[0].At != 0 ||
		spans[1].Kind != trace.SpanEnd || spans[1].At != union {
		t.Errorf("aP0 track %v, want one span over [0, %v]", spans, union)
	}
	var folded bytes.Buffer
	if err := pr.Doc(nil).WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{";ap0-A;Compute 1000\n", ";ap0-B;Compute 10000\n"} {
		if !strings.Contains(folded.String(), want) {
			t.Errorf("profile lacks %q:\n%s", want, folded.String())
		}
	}
}

func TestBigMachine(t *testing.T) {
	// All-to-one on 8 nodes; exercises the fat tree + queue backpressure.
	m := newMachine(t, 8)
	received := 0
	m.Go(0, "sink", func(p *sim.Proc, a *API) {
		for received < 7*10 {
			if _, _, ok := a.TryRecvBasic(p); ok {
				received++
			}
		}
	})
	for i := 1; i < 8; i++ {
		m.Go(i, "src", func(p *sim.Proc, a *API) {
			for k := 0; k < 10; k++ {
				a.SendBasic(p, 0, []byte{byte(a.NodeID()), byte(k)})
			}
		})
	}
	m.Run()
	if received != 70 {
		t.Fatalf("received %d", received)
	}
}

func TestDirectNetVariant(t *testing.T) {
	cfg := cluster.DefaultConfig(2)
	cfg.DirectNet = true
	m := NewMachineConfig(cfg)
	done := false
	m.Go(0, "s", func(p *sim.Proc, a *API) { a.SendBasic(p, 1, []byte("d")) })
	m.Go(1, "r", func(p *sim.Proc, a *API) {
		_, pl := a.RecvBasic(p)
		done = bytes.Equal(pl, []byte("d"))
	})
	m.Run()
	if !done {
		t.Fatal("direct-net machine failed")
	}
}
