package node

import (
	"testing"

	"startvoyager/internal/arctic"
	"startvoyager/internal/firmware"
	"startvoyager/internal/niu/ctrl"
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
