package node

import (
	"bytes"
	"testing"

	"startvoyager/internal/arctic"
	"startvoyager/internal/firmware"
	"startvoyager/internal/niu/ctrl"
	"startvoyager/internal/niu/txrx"
	"startvoyager/internal/sim"
)

func TestAddressMapDisjoint(t *testing.T) {
	eng := sim.NewEngine()
	fab := arctic.NewDirect(eng, 1, 100, 0)
	n := New(eng, 0, fab, DefaultConfig(), 1, 0, 1<<20, 0, TransImage(1))
	ranges := []struct {
		name string
		base uint32
		size uint32
	}{
		{"dram", DramBase, DramSize},
		{"numa", NumaBase, NumaSize},
		{"scoma", ScomaBase, 1 << 20},
		{"sram", SramBase, ASramSize},
		{"ptr", PtrBase, PtrSize},
		{"extx", ExTxBase, ExTxSize},
		{"exrx", ExRxBase, ExRxSize},
	}
	for i := range ranges {
		for j := i + 1; j < len(ranges); j++ {
			a, b := ranges[i], ranges[j]
			if a.base < b.base+b.size && b.base < a.base+a.size {
				t.Errorf("ranges %s and %s overlap", a.name, b.name)
			}
		}
	}
	_ = n
}

func TestSramLayoutDisjoint(t *testing.T) {
	// Queue buffers must not overlap each other or the shadow area.
	regions := []struct {
		name string
		base int
		size int
	}{
		{"shadow", 0, 0x200},
		{"txBasic", SramTxBasicBuf, BasicSlotBytes * BasicEntries},
		{"txExpress", SramTxExpressBuf, ctrl.ExpressSlotBytes * ExpressEntries},
		{"rxBasic", SramRxBasicBuf, BasicSlotBytes * BasicEntries},
		{"rxExpress", SramRxExpressBuf, ctrl.ExpressSlotBytes * ExpressEntries},
		{"rxNotify", SramRxNotifyBuf, BasicSlotBytes * BasicEntries},
	}
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			a, b := regions[i], regions[j]
			if a.base < b.base+b.size && b.base < a.base+a.size {
				t.Errorf("aSRAM regions %s and %s overlap", a.name, b.name)
			}
		}
	}
	if UserASram <= SramRxNotifyBuf {
		t.Error("UserASram overlaps queue buffers")
	}
}

func TestDefaultQueuesConfigured(t *testing.T) {
	eng := sim.NewEngine()
	fab := arctic.NewDirect(eng, 4, 100, 0)
	n := New(eng, 2, fab, DefaultConfig(), 4, 0, 1<<20, 0, TransImage(4))
	if !n.Ctrl.TxQueueConfig(TxBasic).Enabled || !n.Ctrl.TxQueueConfig(TxExpress).Express {
		t.Fatal("tx queues misconfigured")
	}
	if n.Ctrl.RxQueueConfig(RxSvc).Logical != firmware.SvcLogicalQ {
		t.Fatal("svc queue logical id wrong")
	}
	if !n.Ctrl.RxQueueConfig(RxMiss).Interrupt {
		t.Fatal("miss queue must interrupt")
	}
}

func TestDmaStagingInsideASram(t *testing.T) {
	eng := sim.NewEngine()
	fab := arctic.NewDirect(eng, 1, 100, 0)
	n := New(eng, 0, fab, DefaultConfig(), 1, 0, 0, 0, TransImage(1))
	off := n.DmaStagingOff()
	if int(off)+DmaStagingLen > n.ASram.Size() {
		t.Fatal("staging beyond aSRAM")
	}
	if int(off) < UserASram {
		t.Fatal("staging overlaps queue layout")
	}
}

func TestScomaDisabled(t *testing.T) {
	eng := sim.NewEngine()
	fab := arctic.NewDirect(eng, 1, 100, 0)
	n := New(eng, 0, fab, DefaultConfig(), 1, 0, 0, 0, TransImage(1))
	if n.Map.Scoma.Size != 0 {
		t.Fatal("scoma window present when disabled")
	}
	if n.ClsSram == nil {
		t.Fatal("cls placeholder missing")
	}
}

// reuseCounter wraps a node's endpoint and counts the deliveries each
// pooled packet record carried.
type reuseCounter struct {
	inner arctic.Endpoint
	seen  map[*arctic.Packet]int
	n     int
}

func (r *reuseCounter) TryDeliver(p *arctic.Packet) bool {
	if !r.inner.TryDeliver(p) {
		return false
	}
	r.seen[p]++
	r.n++
	return true
}

// TestRemoteCommandPayloadOutlivesPacket: a remote command's payload is its
// own once CTRL has taken it off the wire. Two back-to-back block transfers
// from node 0 queue CmdWriteDram commands (and a CmdNotify each) in node 1's
// remote queue while their packets go back to the fabric's pool and carry
// later packets; every DRAM line and both notifications still land intact.
// Then node 0 sends CmdNotify commands back to back: each arrives while the
// previous one's notification is still landing, decoded into the command
// frame that notification came in, which the remote queue has recycled; the
// notification must still land its own payload.
func TestRemoteCommandPayloadOutlivesPacket(t *testing.T) {
	eng := sim.NewEngine()
	fab := arctic.NewFatTree(eng, 2, arctic.DefaultConfig())
	trans := TransImage(2)
	n0 := New(eng, 0, fab, DefaultConfig(), 2, arctic.DefaultConfig().FlitTime, 1<<20, 0, trans)
	n1 := New(eng, 1, fab, DefaultConfig(), 2, arctic.DefaultConfig().FlitTime, 1<<20, 0, trans)
	rc := &reuseCounter{inner: &netAdapter{n: n1}, seen: map[*arctic.Packet]int{}}
	fab.Attach(1, rc)

	const xfer = 512
	src := make([]byte, 2*xfer)
	for i := range src {
		src[i] = byte(i*7 + 3)
	}
	n0.ASram.Write(UserASram, src)
	for k := 0; k < 2; k++ {
		n0.Ctrl.IssueCommand(0, &ctrl.BlockTx{Buf: n0.ASram, SramOff: UserASram + uint32(k*xfer),
			Len: xfer, DestNode: 1, DestAddr: 0x10000 + uint32(k*xfer), Priority: arctic.Low,
			NotifyQ: LqNotify, NotifyPayload: []byte{0xA0 + byte(k), 1, 2, 3}})
	}
	eng.Run()

	if want := 2 * (xfer/ctrl.BlockTxChunk + 1); rc.n != want {
		t.Fatalf("node 1 took %d packets, want %d", rc.n, want)
	}
	if len(rc.seen) >= rc.n {
		t.Fatalf("%d deliveries rode %d distinct packets: the pool never reused one", rc.n, len(rc.seen))
	}
	got := make([]byte, 2*xfer)
	n1.Dram.Peek(0x10000, got)
	if !bytes.Equal(got, src) {
		t.Fatal("remote DRAM writes landed corrupted after their packets were reused")
	}
	if n1.Ctrl.RxProducer(RxNotify) != 2 {
		t.Fatalf("%d notifications landed, want 2", n1.Ctrl.RxProducer(RxNotify))
	}
	for k := uint32(0); k < 2; k++ {
		_, _, pl := n1.Ctrl.ReadRxSlot(RxNotify, k)
		if want := []byte{0xA0 + byte(k), 1, 2, 3}; !bytes.Equal(pl, want) {
			t.Fatalf("notification %d carried %v, want %v", k, pl, want)
		}
	}

	const notifies = 6
	for k := 0; k < notifies; k++ {
		n0.Ctrl.IssueCommand(0, &ctrl.SendMsg{Frame: &txrx.Frame{Kind: txrx.Cmd,
			Op: txrx.CmdNotify, Aux: LqNotify, Payload: []byte{0xC0 + byte(k), 4, 5, 6}},
			Dest: 1, Priority: arctic.Low})
	}
	eng.Run()
	if got := n1.Ctrl.RxProducer(RxNotify); got != 2+notifies {
		t.Fatalf("%d notifications landed, want %d", got, 2+notifies)
	}
	for k := 0; k < notifies; k++ {
		_, _, pl := n1.Ctrl.ReadRxSlot(RxNotify, uint32(2+k))
		if want := []byte{0xC0 + byte(k), 4, 5, 6}; !bytes.Equal(pl, want) {
			t.Fatalf("back-to-back notification %d carried %v, want %v", k, pl, want)
		}
	}
}
