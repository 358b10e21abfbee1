package ctrl

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"startvoyager/internal/arctic"
	"startvoyager/internal/bus"
	"startvoyager/internal/niu/sram"
	"startvoyager/internal/niu/txrx"
	"startvoyager/internal/sim"
)

// fakeNet records injections and can loop them back into another CTRL.
type fakeNet struct {
	eng      *sim.Engine
	injected []injRec
	peer     *Ctrl
	delay    sim.Time
	pokes    int
	// stalled holds refused loopback deliveries until the peer pokes.
	stalled []stalledRec
}

type injRec struct {
	dst  int
	pri  arctic.Priority
	wire []byte
}

type stalledRec struct {
	wire []byte
	tag  sim.MsgTag
}

func (n *fakeNet) Inject(dst int, pri arctic.Priority, wire []byte, tag sim.MsgTag) {
	n.injected = append(n.injected, injRec{dst, pri, wire})
	if n.peer != nil {
		w := append([]byte(nil), wire...)
		n.eng.Schedule(n.delay, func() { n.deliver(w, tag) })
	}
}

func (n *fakeNet) deliver(w []byte, tag sim.MsgTag) {
	if len(n.stalled) > 0 {
		n.stalled = append(n.stalled, stalledRec{w, tag})
		return
	}
	if !n.peer.TryReceive(w, tag) {
		n.stalled = append(n.stalled, stalledRec{w, tag})
	}
}

func (n *fakeNet) Ready(arctic.Priority) bool { return true }

func (n *fakeNet) Poke() {
	n.pokes++
	for len(n.stalled) > 0 {
		if !n.peer.TryReceive(n.stalled[0].wire, n.stalled[0].tag) {
			return
		}
		n.stalled = n.stalled[1:]
	}
}

// fakeBus serves bus ops from a flat memory after a fixed delay.
type fakeBus struct {
	eng   *sim.Engine
	memry []byte
	delay sim.Time
	ops   []*bus.Transaction
}

func (b *fakeBus) IssueBusOp(tx *bus.Transaction, done func()) {
	b.ops = append(b.ops, tx)
	b.eng.Schedule(b.delay, func() {
		if int(tx.Addr)+len(tx.Data) <= len(b.memry) {
			if tx.Kind.IsRead() {
				copy(tx.Data, b.memry[tx.Addr:])
			} else {
				copy(b.memry[tx.Addr:], tx.Data)
			}
		}
		done()
	})
}

// fakeInts records interrupts.
type fakeInts struct {
	rx   []int
	prot []int
}

func (f *fakeInts) RxInterrupt(q int)   { f.rx = append(f.rx, q) }
func (f *fakeInts) ProtViolation(q int) { f.prot = append(f.prot, q) }

type rig struct {
	eng  *sim.Engine
	c    *Ctrl
	net  *fakeNet
	busp *fakeBus
	ints *fakeInts
	aS   *sram.SRAM
	sS   *sram.SRAM
}

// The rig's wiring, as on a default machine: a 15 ns bus-synchronous NIU
// clock, 100 ns flits and a 256-entry translation table.
const (
	rigCycle   = 15 * sim.Nanosecond
	rigFlit    = 100 * sim.Nanosecond
	rigEntries = 256
)

func newRig(t *testing.T, node int) *rig {
	if t != nil {
		t.Helper()
	}
	eng := sim.NewEngine()
	aS := sram.New("aSRAM", 64<<10)
	sS := sram.New("sSRAM", 64<<10)
	cls := sram.NewCls(1024)
	c := New(eng, node, aS, sS, cls, DefaultConfig(), rigCycle, rigFlit, rigEntries,
		bus.Range{Base: 0x8000_0000, Size: 1024 * bus.LineSize})
	net := &fakeNet{eng: eng, delay: 300}
	busp := &fakeBus{eng: eng, memry: make([]byte, 1<<20), delay: 150}
	ints := &fakeInts{}
	c.SetPorts(busp, net, ints)
	return &rig{eng: eng, c: c, net: net, busp: busp, ints: ints, aS: aS, sS: sS}
}

// stdTx configures tx queue 0: 8 basic 96-byte slots at aSRAM 0x1000.
func (r *rig) stdTx(q int, translate bool) {
	r.c.ConfigureTx(q, TxConfig{
		Buf: r.aS, Base: 0x1000 + uint32(q)*0x400, EntryBytes: 96, Entries: 8,
		ShadowBase: 0x100 + uint32(q)*8,
		Translate:  translate, AndMask: 0xFFFF, OrMask: 0,
		AllowedDests: ^uint64(0), Enabled: true, RawAllowed: true,
	})
}

// stdRx configures rx queue q with the given logical id.
func (r *rig) stdRx(q int, logical uint16, full FullPolicy) {
	r.c.ConfigureRx(q, RxConfig{
		Buf: r.aS, Base: 0x4000 + uint32(q)*0x400, EntryBytes: 96, Entries: 4,
		ShadowBase: 0x200 + uint32(q)*8,
		Logical:    logical, Full: full, Enabled: true,
	})
}

// composeBasic writes a basic data message into tx queue q's next slot and
// returns the new producer value.
func (r *rig) composeBasic(q int, dest uint16, flags byte, payload []byte) uint32 {
	return r.composeBasicAt(q, r.c.TxProducer(q), dest, flags, payload)
}

// composeBasicAt composes into the slot for pointer value ptr.
func (r *rig) composeBasicAt(q int, ptr uint32, dest uint16, flags byte, payload []byte) uint32 {
	cfg := r.c.TxQueueConfig(q)
	p := ptr
	off := SlotOffset(cfg.Base, cfg.EntryBytes, cfg.Entries, p)
	slot := make([]byte, cfg.EntryBytes)
	binary.BigEndian.PutUint16(slot[0:], dest)
	slot[2] = flags
	slot[3] = byte(len(payload))
	copy(slot[8:], payload)
	cfg.Buf.Write(off, slot)
	return p + 1
}

func TestRawTransmit(t *testing.T) {
	r := newRig(t, 3)
	r.stdTx(0, false)
	p := r.composeBasic(0, 5, SlotFlagRaw, []byte("ping"))
	r.c.TxProducerUpdate(0, p)
	r.eng.Run()
	if len(r.net.injected) != 1 {
		t.Fatalf("injected %d packets", len(r.net.injected))
	}
	in := r.net.injected[0]
	if in.dst != 5 || in.pri != arctic.Low {
		t.Fatalf("dst=%d pri=%v", in.dst, in.pri)
	}
	var f txrx.Frame
	if err := txrx.DecodeInto(&f, in.wire); err != nil {
		t.Fatal(err)
	}
	if f.SrcNode != 3 || !bytes.Equal(f.Payload, []byte("ping")) {
		t.Fatalf("frame %+v", f)
	}
	if r.c.TxConsumer(0) != 1 {
		t.Fatal("consumer not advanced")
	}
	// Shadow pointers must be visible in SRAM.
	var sh [8]byte
	r.aS.Read(0x100, sh[:])
	if binary.BigEndian.Uint32(sh[0:]) != 1 || binary.BigEndian.Uint32(sh[4:]) != 1 {
		t.Fatalf("shadow = %v", sh)
	}
}

func TestTranslatedTransmit(t *testing.T) {
	r := newRig(t, 0)
	r.stdTx(0, true)
	r.c.WriteTransEntry(7, TransEntry{PhysNode: 9, LogicalQ: 42, Priority: arctic.High, Valid: true})
	p := r.composeBasic(0, 7, 0, []byte("x"))
	r.c.TxProducerUpdate(0, p)
	r.eng.Run()
	if len(r.net.injected) != 1 {
		t.Fatal("nothing injected")
	}
	in := r.net.injected[0]
	var f txrx.Frame
	_ = txrx.DecodeInto(&f, in.wire)
	if in.dst != 9 || in.pri != arctic.High || f.LogicalQ != 42 {
		t.Fatalf("translation wrong: dst=%d pri=%v lq=%d", in.dst, in.pri, f.LogicalQ)
	}
}

func TestTranslationMasks(t *testing.T) {
	r := newRig(t, 0)
	r.c.ConfigureTx(0, TxConfig{
		Buf: r.aS, Base: 0x1000, EntryBytes: 96, Entries: 8, ShadowBase: 0x100,
		Translate: true, AndMask: 0x000F, OrMask: 0x0020,
		AllowedDests: ^uint64(0), Enabled: true,
	})
	// virt 0x1234 -> (0x1234 & 0xF) | 0x20 = 0x24.
	r.c.WriteTransEntry(0x24, TransEntry{PhysNode: 2, LogicalQ: 1, Valid: true})
	p := r.composeBasic(0, 0x1234, 0, []byte("m"))
	r.c.TxProducerUpdate(0, p)
	r.eng.Run()
	if len(r.net.injected) != 1 || r.net.injected[0].dst != 2 {
		t.Fatalf("mask translation failed: %+v", r.net.injected)
	}
}

func TestProtectionShutdown(t *testing.T) {
	r := newRig(t, 0)
	r.c.ConfigureTx(0, TxConfig{
		Buf: r.aS, Base: 0x1000, EntryBytes: 96, Entries: 8, ShadowBase: 0x100,
		Translate: true, AndMask: 0xFFFF,
		AllowedDests: 1 << 4, Enabled: true, // only node 4 permitted
	})
	r.c.WriteTransEntry(1, TransEntry{PhysNode: 5, LogicalQ: 0, Valid: true}) // forbidden node
	p := r.composeBasic(0, 1, 0, []byte("evil"))
	r.c.TxProducerUpdate(0, p)
	r.eng.Run()
	if len(r.net.injected) != 0 {
		t.Fatal("forbidden message escaped")
	}
	if !r.c.TxShutdown(0) {
		t.Fatal("queue not shut down")
	}
	if len(r.ints.prot) != 1 || r.ints.prot[0] != 0 {
		t.Fatalf("prot interrupts %v", r.ints.prot)
	}
	if r.c.Stats().ProtViolations != 1 {
		t.Fatalf("stats %+v", r.c.Stats())
	}
	// Firmware fixes the table and re-enables; the held message launches.
	r.c.WriteTransEntry(1, TransEntry{PhysNode: 4, LogicalQ: 0, Valid: true})
	r.eng.Schedule(0, func() { r.c.SetTxEnabled(0, true) })
	r.eng.Run()
	if len(r.net.injected) != 1 || r.net.injected[0].dst != 4 {
		t.Fatalf("after re-enable: %+v", r.net.injected)
	}
}

func TestInvalidTranslationShutsDown(t *testing.T) {
	r := newRig(t, 0)
	r.stdTx(0, true)
	p := r.composeBasic(0, 99, 0, []byte("m")) // entry 99 never written: invalid
	r.c.TxProducerUpdate(0, p)
	r.eng.Run()
	if !r.c.TxShutdown(0) || len(r.net.injected) != 0 {
		t.Fatal("invalid translation not caught")
	}
}

func TestPriorityArbitration(t *testing.T) {
	r := newRig(t, 0)
	r.stdTx(0, false)
	r.stdTx(1, false)
	r.c.SetTxPriority(0, 5) // worse class
	r.c.SetTxPriority(1, 1) // better class
	// Two messages in queue 0, one in queue 1. Queue 0's first message
	// starts immediately (the arbiter is idle when its pointer lands), but
	// the next arbitration must prefer queue 1 over queue 0's second.
	r.composeBasicAt(0, 0, 1, SlotFlagRaw, []byte("low-1"))
	p0 := r.composeBasicAt(0, 1, 1, SlotFlagRaw, []byte("low-2"))
	p1 := r.composeBasic(1, 2, SlotFlagRaw, []byte("high"))
	r.eng.Schedule(0, func() {
		r.c.TxProducerUpdate(0, p0)
		r.c.TxProducerUpdate(1, p1)
	})
	r.eng.Run()
	if len(r.net.injected) != 3 {
		t.Fatalf("injected %d", len(r.net.injected))
	}
	dsts := []int{r.net.injected[0].dst, r.net.injected[1].dst, r.net.injected[2].dst}
	if dsts[1] != 2 {
		t.Fatalf("priority arbitration failed: order %v", dsts)
	}
}

func TestTagOn(t *testing.T) {
	r := newRig(t, 0)
	r.stdTx(0, false)
	// TagOn data in sSRAM at 0x3000: 48 bytes (1.5 lines).
	tag := bytes.Repeat([]byte{0x7, 0xA, 0x6}, 16)
	r.sS.Write(0x3000, tag)
	cfg := r.c.TxQueueConfig(0)
	p := r.c.TxProducer(0)
	off := SlotOffset(cfg.Base, cfg.EntryBytes, cfg.Entries, p)
	slot := make([]byte, 96)
	binary.BigEndian.PutUint16(slot[0:], 1)
	slot[2] = SlotFlagRaw | SlotFlagTagOn
	slot[3] = 5 // inline bytes
	slot[4], slot[5], slot[6] = 0x00, 0x30, 0x00
	slot[7] = 3 // 3 * 16 = 48 bytes
	copy(slot[8:], "inlin")
	r.aS.Write(off, slot)
	r.c.TxProducerUpdate(0, p+1)
	r.eng.Run()
	if len(r.net.injected) != 1 {
		t.Fatal("no packet")
	}
	var f txrx.Frame
	_ = txrx.DecodeInto(&f, r.net.injected[0].wire)
	if len(f.Payload) != 5+48 {
		t.Fatalf("payload %d bytes", len(f.Payload))
	}
	if !bytes.Equal(f.Payload[:5], []byte("inlin")) || !bytes.Equal(f.Payload[5:], tag) {
		t.Fatal("tagon payload wrong")
	}
	if r.c.Stats().TagOns != 1 {
		t.Fatalf("stats %+v", r.c.Stats())
	}
}

func TestRxDelivery(t *testing.T) {
	r := newRig(t, 1)
	r.stdRx(0, 7, Hold)
	f := &txrx.Frame{Kind: txrx.Data, SrcNode: 4, LogicalQ: 7, Payload: []byte("hello")}
	w, _ := txrx.Encode(f)
	if !r.c.TryReceive(w, sim.MsgTag{}) {
		t.Fatal("refused")
	}
	r.eng.Run()
	if r.c.RxProducer(0) != 1 {
		t.Fatal("producer not bumped")
	}
	src, lq, pay := r.c.ReadRxSlot(0, 0)
	if src != 4 || lq != 7 || !bytes.Equal(pay, []byte("hello")) {
		t.Fatalf("slot %d %d %q", src, lq, pay)
	}
	// Shadow producer visible in SRAM.
	var sh [8]byte
	r.aS.Read(0x200, sh[:])
	if binary.BigEndian.Uint32(sh[0:]) != 1 {
		t.Fatal("rx shadow not updated")
	}
}

func TestRxInterrupt(t *testing.T) {
	r := newRig(t, 1)
	r.c.ConfigureRx(2, RxConfig{Buf: r.aS, Base: 0x4000, EntryBytes: 96, Entries: 4,
		ShadowBase: 0x200, Logical: 9, Interrupt: true, Enabled: true})
	w, _ := txrx.Encode(&txrx.Frame{Kind: txrx.Data, LogicalQ: 9, Payload: []byte("i")})
	r.c.TryReceive(w, sim.MsgTag{})
	r.eng.Run()
	if len(r.ints.rx) != 1 || r.ints.rx[0] != 2 {
		t.Fatalf("rx interrupts %v", r.ints.rx)
	}
}

func TestRxMissQueue(t *testing.T) {
	r := newRig(t, 1)
	r.stdRx(0, 7, Hold)
	r.stdRx(MissQueue, 0xFFFF, Hold) // miss queue
	w, _ := txrx.Encode(&txrx.Frame{Kind: txrx.Data, LogicalQ: 1234, Payload: []byte("m")})
	if !r.c.TryReceive(w, sim.MsgTag{}) {
		t.Fatal("refused")
	}
	r.eng.Run()
	if r.c.RxProducer(MissQueue) != 1 {
		t.Fatal("miss queue did not get the message")
	}
	if r.c.Stats().RxMisses != 1 {
		t.Fatalf("stats %+v", r.c.Stats())
	}
}

func TestRxFullPolicies(t *testing.T) {
	// Hold: refuse.
	r := newRig(t, 1)
	r.stdRx(0, 7, Hold)
	w, _ := txrx.Encode(&txrx.Frame{Kind: txrx.Data, LogicalQ: 7, Payload: []byte("m")})
	for i := 0; i < 4; i++ {
		if !r.c.TryReceive(w, sim.MsgTag{}) {
			t.Fatalf("refused at %d", i)
		}
	}
	if r.c.TryReceive(w, sim.MsgTag{}) {
		t.Fatal("accepted into full Hold queue")
	}
	r.eng.Run()
	if r.c.Stats().RxHolds != 1 {
		t.Fatalf("stats %+v", r.c.Stats())
	}
	// Consumer frees a slot: CTRL must poke the network.
	r.eng.Schedule(0, func() { r.c.RxConsumerUpdate(0, 1) })
	r.eng.Run()
	if r.net.pokes != 1 {
		t.Fatalf("pokes = %d", r.net.pokes)
	}

	// Drop.
	r2 := newRig(t, 1)
	r2.stdRx(0, 7, Drop)
	for i := 0; i < 5; i++ {
		if !r2.c.TryReceive(w, sim.MsgTag{}) {
			t.Fatal("drop policy refused")
		}
	}
	r2.eng.Run()
	if r2.c.Stats().RxDrops != 1 || r2.c.RxProducer(0) != 4 {
		t.Fatalf("drops=%d produced=%d", r2.c.Stats().RxDrops, r2.c.RxProducer(0))
	}

	// Divert.
	r3 := newRig(t, 1)
	r3.stdRx(0, 7, Divert)
	r3.stdRx(MissQueue, 0xFFFF, Hold)
	for i := 0; i < 5; i++ {
		if !r3.c.TryReceive(w, sim.MsgTag{}) {
			t.Fatal("divert policy refused")
		}
	}
	r3.eng.Run()
	if r3.c.RxProducer(0) != 4 || r3.c.RxProducer(MissQueue) != 1 {
		t.Fatalf("divert: q0=%d miss=%d", r3.c.RxProducer(0), r3.c.RxProducer(MissQueue))
	}
}

func TestExpressComposeAndReceive(t *testing.T) {
	// Two CTRLs looped back through the fake net.
	r := newRig(t, 0)
	peer := newRig(t, 1)
	// Share one engine: rebuild peer on r's engine for loopback.
	peerC := New(r.eng, 1, peer.aS, peer.sS, sram.NewCls(16), DefaultConfig(),
		rigCycle, rigFlit, rigEntries, bus.Range{})
	peerNet := &fakeNet{eng: r.eng}
	peerC.SetPorts(&fakeBus{eng: r.eng, memry: make([]byte, 4096)}, peerNet, &fakeInts{})
	r.net.peer = peerC
	r.net.delay = 500

	// Express tx queue on node 0, translated through entry 3.
	r.c.ConfigureTx(1, TxConfig{Buf: r.aS, Base: 0x2000, EntryBytes: 8, Entries: 16,
		ShadowBase: 0x110, Express: true, Translate: true, AndMask: 0xFFFF,
		AllowedDests: ^uint64(0), Enabled: true})
	r.c.WriteTransEntry(3, TransEntry{PhysNode: 1, LogicalQ: 70, Valid: true})
	// Express rx queue on node 1.
	peerC.ConfigureRx(2, RxConfig{Buf: peer.aS, Base: 0x2000, EntryBytes: 8, Entries: 16,
		ShadowBase: 0x110, Logical: 70, Express: true, Enabled: true})

	r.eng.Schedule(0, func() { r.c.ExpressCompose(1, 3, []byte{1, 2, 3, 4, 5}) })
	r.eng.Run()

	if peerC.RxProducer(2) != 1 {
		t.Fatal("express message not delivered")
	}
	word := peerC.ExpressReceive(2)
	if word[0] != 0x80 {
		t.Fatalf("valid flag missing: %v", word)
	}
	if binary.BigEndian.Uint16(word[1:]) != 0 {
		t.Fatalf("src = %d", binary.BigEndian.Uint16(word[1:]))
	}
	if !bytes.Equal(word[3:8], []byte{1, 2, 3, 4, 5}) {
		t.Fatalf("payload %v", word[3:8])
	}
	if peerC.RxConsumer(2) != 1 {
		t.Fatal("express receive did not free the slot")
	}
	// Empty queue: canonical empty message.
	empty := peerC.ExpressReceive(2)
	if empty != [8]byte{} {
		t.Fatalf("empty = %v", empty)
	}
}

func TestCmdSendMsg(t *testing.T) {
	r := newRig(t, 2)
	done := false
	r.eng.Schedule(0, func() {
		r.c.IssueCommand(0, &SendMsg{
			Base:  Base{Done: func() { done = true }},
			Frame: &txrx.Frame{Kind: txrx.Data, LogicalQ: 5, Payload: []byte("fw")},
			Dest:  7, Priority: arctic.High,
		})
	})
	r.eng.Run()
	if !done || len(r.net.injected) != 1 {
		t.Fatalf("done=%v injected=%d", done, len(r.net.injected))
	}
	if r.net.injected[0].dst != 7 || r.net.injected[0].pri != arctic.High {
		t.Fatal("wrong routing")
	}
}

func TestCmdOrdering(t *testing.T) {
	// Commands in one queue complete in issue order: a one-cycle SetCls
	// behind a bus read waits for it, and a launch behind both waits too.
	r := newRig(t, 0)
	var order []string
	note := func(s string) Base { return Base{Done: func() { order = append(order, s) }} }
	r.eng.Schedule(0, func() {
		r.c.IssueCommand(0, &BusOp{Base: note("busop"),
			Tx:    &bus.Transaction{Kind: bus.ReadLine, Addr: 0x500, Data: make([]byte, bus.LineSize)},
			ToBuf: r.aS, ToOff: 0x700})
		r.c.IssueCommand(0, &SetCls{Base: note("cls"),
			Addr: 0x8000_0000, Count: 1, State: sram.CLPending})
		r.c.IssueCommand(0, &SendMsg{Base: note("send"),
			Frame: &txrx.Frame{Kind: txrx.Data, LogicalQ: 5, Payload: []byte("x")}, Dest: 1})
	})
	r.eng.Run()
	if got := strings.Join(order, ","); got != "busop,cls,send" {
		t.Fatalf("order %s, want busop,cls,send", got)
	}
}

func TestCmdBusOp(t *testing.T) {
	r := newRig(t, 0)
	copy(r.busp.memry[0x500:], []byte("dramdata"))
	bare := &bus.Transaction{Kind: bus.ReadWord, Addr: 0x500, Data: make([]byte, 8)}
	r.eng.Schedule(0, func() {
		// Read a DRAM word into aSRAM.
		r.c.IssueCommand(0, &BusOp{
			Tx:    &bus.Transaction{Kind: bus.ReadWord, Addr: 0x500, Data: make([]byte, 8)},
			ToBuf: r.aS, ToOff: 0x700,
		})
		// Without a buffer, the read lands in the transaction only.
		r.c.IssueCommand(0, &BusOp{Tx: bare})
		// A write takes its data from the transaction.
		r.c.IssueCommand(0, &BusOp{
			Tx: &bus.Transaction{Kind: bus.WriteWord, Addr: 0x508, Data: []byte("busdata!")},
		})
	})
	r.eng.Run()
	got := make([]byte, 8)
	r.aS.Read(0x700, got)
	if !bytes.Equal(got, []byte("dramdata")) {
		t.Fatalf("bus read into SRAM: %q", got)
	}
	if !bytes.Equal(bare.Data, []byte("dramdata")) {
		t.Fatalf("bus read without a buffer: %q", bare.Data)
	}
	if !bytes.Equal(r.busp.memry[0x508:0x510], []byte("busdata!")) {
		t.Fatalf("bus write: %q", r.busp.memry[0x508:0x510])
	}
}

func TestBlockRead(t *testing.T) {
	r := newRig(t, 0)
	data := bytes.Repeat([]byte{0xAB}, 4096)
	copy(r.busp.memry[0x2000:], data)
	done := false
	r.eng.Schedule(0, func() {
		r.c.IssueCommand(0, &BlockRead{Base: Base{Done: func() { done = true }},
			DramAddr: 0x2000, SramOff: 0x8000, Len: 4096})
	})
	r.eng.Run()
	if !done {
		t.Fatal("block read incomplete")
	}
	got := make([]byte, 4096)
	r.aS.Read(0x8000, got)
	if !bytes.Equal(got, data) {
		t.Fatal("block read data wrong")
	}
	if len(r.busp.ops) != 128 {
		t.Fatalf("bus ops = %d, want 128 lines", len(r.busp.ops))
	}
	if r.c.Stats().BlockReads != 1 {
		t.Fatalf("stats %+v", r.c.Stats())
	}
}

func TestBlockReadDoesNotStallQueue(t *testing.T) {
	// A block read is background work: a command issued after it must not
	// wait for its completion.
	r := newRig(t, 0)
	var order []string
	r.eng.Schedule(0, func() {
		r.c.IssueCommand(0, &BlockRead{Base: Base{Done: func() { order = append(order, "block") }},
			DramAddr: 0, SramOff: 0, Len: 4096})
		r.c.IssueCommand(0, &SetCls{Base: Base{Done: func() { order = append(order, "cls") }},
			Addr: 0x8000_0000, Count: 1, State: sram.CLPending})
	})
	r.eng.Run()
	if len(order) != 2 || order[0] != "cls" || order[1] != "block" {
		t.Fatalf("order %v", order)
	}
}

func TestBlockTxToRemoteDram(t *testing.T) {
	// Node 0 block-transmits 1 KB of aSRAM into node 1's DRAM, with a
	// completion notification into logical queue 30.
	r := newRig(t, 0)
	peerC := New(r.eng, 1, sram.New("a1", 64<<10), sram.New("s1", 64<<10),
		sram.NewCls(16), DefaultConfig(), rigCycle, rigFlit, rigEntries, bus.Range{})
	peerBus := &fakeBus{eng: r.eng, memry: make([]byte, 1<<20), delay: 150}
	peerC.SetPorts(peerBus, &fakeNet{eng: r.eng}, &fakeInts{})
	peerC.ConfigureRx(0, RxConfig{Buf: peerC.aSRAM, Base: 0x4000, EntryBytes: 96,
		Entries: 8, ShadowBase: 0x200, Logical: 30, Enabled: true})
	r.net.peer = peerC
	r.net.delay = 300

	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	r.aS.Write(0xA000, payload)
	done := false
	r.eng.Schedule(0, func() {
		r.c.IssueCommand(0, &BlockTx{Base: Base{Done: func() { done = true }},
			Buf: r.aS, SramOff: 0xA000, Len: 1024,
			DestNode: 1, DestAddr: 0x3000,
			NotifyQ: 30, NotifyPayload: []byte("xfer-done")})
	})
	r.eng.Run()
	if !done {
		t.Fatal("block tx incomplete")
	}
	if !bytes.Equal(peerBus.memry[0x3000:0x3400], payload) {
		t.Fatal("remote DRAM content wrong")
	}
	// 1024/64 = 16 data packets + 1 notify.
	if len(r.net.injected) != 17 {
		t.Fatalf("injected %d packets", len(r.net.injected))
	}
	if peerC.RxProducer(0) != 1 {
		t.Fatal("notification not delivered")
	}
	_, _, pay := peerC.ReadRxSlot(0, 0)
	if !bytes.Equal(pay, []byte("xfer-done")) {
		t.Fatalf("notify payload %q", pay)
	}
}

func TestRemoteSetClsAndWriteDramCls(t *testing.T) {
	r := newRig(t, 0)
	scomaBase := uint32(0x8000_0000)
	// SetCls for 4 lines starting at line 2.
	w, _ := txrx.Encode(&txrx.Frame{Kind: txrx.Cmd, Op: txrx.CmdSetCls,
		Addr: scomaBase + 2*bus.LineSize, Aux: uint16(sram.CLPending), Count: 4})
	r.c.TryReceive(w, sim.MsgTag{})
	r.eng.Run()
	for i := 2; i < 6; i++ {
		if r.c.Cls().Get(i) != sram.CLPending {
			t.Fatalf("line %d = %v", i, r.c.Cls().Get(i))
		}
	}
	// WriteDramCls: writes 64 bytes and marks 2 lines ReadOnly.
	data := bytes.Repeat([]byte{5}, 64)
	w2, _ := txrx.Encode(&txrx.Frame{Kind: txrx.Cmd, Op: txrx.CmdWriteDramCls,
		Addr: scomaBase + 2*bus.LineSize, Aux: uint16(sram.CLReadOnly), Payload: data})
	r.c.TryReceive(w2, sim.MsgTag{})
	r.eng.Run()
	if r.c.Cls().Get(2) != sram.CLReadOnly || r.c.Cls().Get(3) != sram.CLReadOnly {
		t.Fatal("cls not updated by WriteDramCls")
	}
	if r.c.Cls().Get(4) != sram.CLPending {
		t.Fatal("WriteDramCls overshot")
	}
	if len(r.busp.ops) != 2 {
		t.Fatalf("bus ops %d, want 2 line writes", len(r.busp.ops))
	}
}

func TestRemoteWriteSram(t *testing.T) {
	r := newRig(t, 0)
	w, _ := txrx.Encode(&txrx.Frame{Kind: txrx.Cmd, Op: txrx.CmdWriteSram,
		Addr: 0x1234, Payload: []byte("remote!!")})
	r.c.TryReceive(w, sim.MsgTag{})
	r.eng.Run()
	got := make([]byte, 8)
	r.aS.Read(0x1234, got)
	if !bytes.Equal(got, []byte("remote!!")) {
		t.Fatalf("got %q", got)
	}
}

func TestProducerOverrunPanics(t *testing.T) {
	r := newRig(t, 0)
	r.stdTx(0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on producer overrun")
		}
	}()
	r.c.TxProducerUpdate(0, 9) // 9 > 8 entries
}

func TestBlockChecks(t *testing.T) {
	r := newRig(t, 0)
	bad := []*BlockRead{
		{DramAddr: 0, SramOff: 0, Len: 8192},       // > page
		{DramAddr: 16, SramOff: 0, Len: 64},        // unaligned
		{DramAddr: 4096 - 32, SramOff: 0, Len: 64}, // crosses page
	}
	for i, cmd := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			cmd.exec(r.c, func() {})
		}()
	}
}
