package firmware

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"startvoyager/internal/arctic"
	"startvoyager/internal/bus"
	"startvoyager/internal/niu/biu"
	"startvoyager/internal/niu/ctrl"
	"startvoyager/internal/niu/sram"
	"startvoyager/internal/niu/txrx"
	"startvoyager/internal/sim"
	"startvoyager/internal/trace"
)

func TestDmaRequestRoundTrip(t *testing.T) {
	f := func(pull bool, peer uint8, src, dst, tag uint32, ln uint16, nq uint16) bool {
		r := DmaRequest{Pull: pull, PeerNode: int(peer), SrcAddr: src, DstAddr: dst,
			Len: int(ln), NotifyQ: nq, Tag: tag}
		return DecodeDmaRequest(EncodeDmaRequest(r)) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeShortDmaRequestPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	DecodeDmaRequest(make([]byte, 4))
}

func TestDefaultCosts(t *testing.T) {
	c := DefaultCosts()
	if c.Dispatch == 0 || c.Handler == 0 || c.PerByte == 0 || c.CmdIssue == 0 {
		t.Fatalf("zero defaults: %+v", c)
	}
}

// fwRig builds a standalone firmware engine over a minimal NIU.
type fwRig struct {
	eng *sim.Engine
	c   *ctrl.Ctrl
	fw  *Engine
	a   *biu.ABIU
	sS  *sram.SRAM
}

type nullNet struct{}

func (nullNet) Inject(int, arctic.Priority, []byte, sim.MsgTag) {}
func (nullNet) Poke()                                           {}
func (nullNet) Ready(arctic.Priority) bool                      { return true }

func newFwRig(t *testing.T) *fwRig {
	t.Helper()
	eng := sim.NewEngine()
	aS := sram.New("a", 64<<10)
	sS := sram.New("s", 64<<10)
	cls := sram.NewCls(64)
	b := bus.New(eng, "b", bus.DefaultConfig())
	c := ctrl.New(eng, 0, aS, sS, cls, ctrl.DefaultConfig(),
		15*sim.Nanosecond, 100*sim.Nanosecond, 256, bus.Range{})
	m := biu.Map{Sram: bus.Range{Base: 0xF000_0000, Size: 64 << 10}}
	a := biu.NewABIU(eng, 0, b, c, aS, cls, m, biu.DefaultConfig())
	sb := biu.NewSBIU(a, c)
	fw := New(eng, 0, sb, DefaultCosts())
	c.SetPorts(a, nullNet{}, fw)
	c.ConfigureRx(13, ctrl.RxConfig{Buf: sS, Base: 0x1000, EntryBytes: 96, Entries: 16,
		ShadowBase: 0x800, Logical: SvcLogicalQ, Interrupt: true, Enabled: true})
	c.ConfigureRx(ctrl.MissQueue, ctrl.RxConfig{Buf: sS, Base: 0x2000, EntryBytes: 96, Entries: 16,
		ShadowBase: 0x808, Logical: MissLogicalQ, Interrupt: true, Enabled: true})
	return &fwRig{eng: eng, c: c, fw: fw, a: a, sS: sS}
}

func (r *fwRig) deliver(t *testing.T, f *txrx.Frame) {
	t.Helper()
	w, err := txrx.EncodeInto(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.c.TryReceive(w, sim.MsgTag{}) {
		t.Fatal("delivery refused")
	}
}

func TestDispatch(t *testing.T) {
	r := newFwRig(t)
	var gotSrc uint16
	var gotBody []byte
	r.fw.Register(0x55, func(p *sim.Proc, src uint16, body []byte) {
		gotSrc, gotBody = src, append([]byte(nil), body...)
	})
	r.fw.Start()
	r.deliver(t, &txrx.Frame{Kind: txrx.Data, SrcNode: 3, LogicalQ: SvcLogicalQ,
		Payload: []byte{0x55, 1, 2, 3}})
	r.eng.Run()
	if gotSrc != 3 || len(gotBody) != 3 || gotBody[0] != 1 {
		t.Fatalf("dispatch: src=%d body=%v", gotSrc, gotBody)
	}
	if r.fw.Stats().Messages != 1 {
		t.Fatalf("stats %+v", r.fw.Stats())
	}
	if r.fw.BusyTime() == 0 {
		t.Fatal("no sP occupancy recorded")
	}
}

func TestDispatchDrainsBatch(t *testing.T) {
	r := newFwRig(t)
	count := 0
	r.fw.Register(0x10, func(p *sim.Proc, src uint16, body []byte) { count++ })
	r.fw.Start()
	for i := 0; i < 5; i++ {
		r.deliver(t, &txrx.Frame{Kind: txrx.Data, LogicalQ: SvcLogicalQ, Payload: []byte{0x10}})
	}
	r.eng.Run()
	if count != 5 {
		t.Fatalf("handled %d of 5", count)
	}
}

func TestMissQueueHandler(t *testing.T) {
	r := newFwRig(t)
	var missLq uint16
	r.fw.SetMissHandler(func(p *sim.Proc, src uint16, lq uint16, body []byte) {
		missLq = lq
	})
	r.fw.Start()
	// Logical queue 777 is resident nowhere: CTRL diverts to the miss queue.
	r.deliver(t, &txrx.Frame{Kind: txrx.Data, LogicalQ: 777, Payload: []byte("lost")})
	r.eng.Run()
	if missLq != 777 {
		t.Fatalf("miss handler saw lq=%d", missLq)
	}
	if r.fw.Stats().MissServed != 1 {
		t.Fatalf("stats %+v", r.fw.Stats())
	}
}

func TestUnknownServicePanics(t *testing.T) {
	r := newFwRig(t)
	r.fw.Start()
	r.deliver(t, &txrx.Frame{Kind: txrx.Data, LogicalQ: SvcLogicalQ, Payload: []byte{0x99}})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown service")
		}
	}()
	r.eng.Run()
}

func TestDuplicateRegisterPanics(t *testing.T) {
	r := newFwRig(t)
	r.fw.Register(1, func(*sim.Proc, uint16, []byte) {})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.fw.Register(1, func(*sim.Proc, uint16, []byte) {})
}

func TestDoubleStartPanics(t *testing.T) {
	r := newFwRig(t)
	r.fw.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.fw.Start()
}

func TestProtViolationRouted(t *testing.T) {
	// The protection interrupt reaches the sP's protLoop, which counts the
	// violation, traces it with the queue number and charges one dispatch.
	r := newFwRig(t)
	buf := trace.Attach(r.eng, 64)
	r.fw.Start()
	r.eng.Schedule(0, func() { r.fw.ProtViolation(7) })
	r.eng.Run()
	if r.fw.Stats().ProtViols != 1 {
		t.Fatalf("stats %+v", r.fw.Stats())
	}
	var evs []trace.Event
	for _, e := range buf.Events() {
		if e.Component == "fw" && e.Name == "prot-viol" {
			evs = append(evs, e)
		}
	}
	if len(evs) != 1 {
		t.Fatalf("%d prot-viol instants, want 1", len(evs))
	}
	if q, ok := evs[0].Fields[0].Int64(); !ok || q != 7 || evs[0].Fields[0].Key != "q" {
		t.Fatalf("prot-viol fields %v, want q=7", evs[0].Fields)
	}
	if got, want := r.fw.BusyTime(), r.fw.Costs().Dispatch; got != want {
		t.Fatalf("sP busy %v after one violation, want one dispatch (%v)", got, want)
	}
}

func TestOccupancySerialized(t *testing.T) {
	// Two firmware activities occupying the sP must serialize.
	r := newFwRig(t)
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		r.fw.Go("w", func(p *sim.Proc) {
			r.fw.Occupy(p, 1000)
			done[i] = p.Now()
		})
	}
	r.eng.Run()
	if done[0] != 1000 || done[1] != 2000 {
		t.Fatalf("occupancy not serialized: %v", done)
	}
}

// TestRelPeersOnFirstUse: on a 1024-node machine a Rel holds state only for
// the peers that carried traffic, in node order, and Quiesced names the
// lowest-numbered peer with a send still awaiting its ACK.
func TestRelPeersOnFirstUse(t *testing.T) {
	r := newFwRig(t)
	rel := NewRel(r.fw, 1024)
	r.fw.Start()
	svc := func(src uint16, body ...byte) {
		r.deliver(t, &txrx.Frame{Kind: txrx.Data, SrcNode: src, LogicalQ: SvcLogicalQ, Payload: body})
	}
	svc(700, SvcRelData, 0, 0, 0, 0, 'a')           // in-order data from node 700
	svc(0, SvcRelSend, 0x03, 0x84, 0, 0, 0, 1, 'b') // a send to node 900
	svc(0, SvcRelSend, 0x00, 0x05, 0, 0, 0, 2, 'c') // a send to node 5
	r.eng.RunUntil(RelTimeout / 2)                  // the sends await ACKs
	var nodes []int
	for _, p := range rel.peers {
		nodes = append(nodes, p.node)
	}
	if !slices.Equal(nodes, []int{5, 700, 900}) || cap(rel.peers) > 2*len(rel.peers) {
		t.Fatalf("peers %v (capacity %d), want [5 700 900]", nodes, cap(rel.peers))
	}
	if err := rel.Quiesced(); err == nil || !strings.Contains(err.Error(), "rel peer 5 ") {
		t.Fatalf("Quiesced() = %v, want node 5 named", err)
	}
}
