package firmware

import (
	"encoding/binary"

	"startvoyager/internal/bus"
	"startvoyager/internal/niu/ctrl"
	"startvoyager/internal/sim"
)

// MissRing implements the receive-queue-caching story of the paper: CTRL
// keeps a small number of logical receive queues resident in hardware;
// messages for any other logical destination divert to the miss/overflow
// queue, and this firmware writes them to their "non-resident (DRAM)
// location" — a ring buffer in main memory that the aP polls with ordinary
// cached loads (bus snooping keeps the polls coherent).
//
// Ring layout in DRAM:
//
//	MissRingBase+0   producer counter (8 bytes, written by firmware)
//	MissRingBase+8   consumer counter (8 bytes, written by the aP)
//	MissRingBase+32  slots: src(2) logicalQ(2) len(2) pad(2) payload (RingSlotBytes each)
type MissRing struct {
	e *Engine

	producer uint32 // firmware's copy

	stats MissRingStats
}

// The ring's geometry, identical on every node.
const (
	// MissRingBase is the DRAM address of the ring.
	MissRingBase = 12 << 20
	// MissRingEntries is the ring capacity.
	MissRingEntries = 64
	// RingSlotBytes is the DRAM ring slot size (three cache lines).
	RingSlotBytes = 96
	// RingHeaderBytes is the ring bookkeeping area before the first slot.
	RingHeaderBytes = 32
)

// RingSlotAddr returns the DRAM address of the slot that the free-running
// ring counter ptr names.
func RingSlotAddr(ptr uint32) uint32 {
	return MissRingBase + RingHeaderBytes + (ptr%MissRingEntries)*RingSlotBytes
}

// MissRingStats counts overflow servicing.
type MissRingStats struct {
	Written uint64
	Dropped uint64 // ring full
}

// NewMissRing installs the default miss/overflow servicer, backing
// non-resident logical queues with the DRAM ring.
func NewMissRing(e *Engine) *MissRing {
	r := &MissRing{e: e}
	e.SetMissHandler(r.onMiss)
	return r
}

// Stats returns a snapshot of counters.
func (r *MissRing) Stats() MissRingStats { return r.stats }

// onMiss writes one diverted message into the DRAM ring with command-queue
// bus operations, then publishes the new producer counter.
func (r *MissRing) onMiss(p *sim.Proc, src uint16, logicalQ uint16, payload []byte) {
	// Check for space: read the aP-owned consumer counter from DRAM.
	cons := &bus.Transaction{Kind: bus.ReadWord, Addr: MissRingBase + 8, Data: make([]byte, 8)}
	g := sim.NewGate(p.Engine())
	r.e.IssueCommand(p, 0, &ctrl.BusOp{Base: ctrl.Base{Done: g.Open}, Tx: cons})
	g.Wait(p)
	consumer := uint32(binary.BigEndian.Uint64(cons.Data))
	if r.producer-consumer >= MissRingEntries {
		// The message is lost for good: its chain ends here, not at the
		// sP's msg-consume.
		r.stats.Dropped++
		r.e.sim.MsgInstant(r.e.node, "fw", "msg-drop", r.e.curMsg, sim.Str("why", "ring-full"))
		return
	}

	slot := make([]byte, RingSlotBytes)
	binary.BigEndian.PutUint16(slot[0:], src)
	binary.BigEndian.PutUint16(slot[2:], logicalQ)
	binary.BigEndian.PutUint16(slot[4:], uint16(len(payload)))
	copy(slot[8:], payload)
	addr := RingSlotAddr(r.producer)
	for off := 0; off < RingSlotBytes; off += bus.LineSize {
		r.e.IssueCommand(p, 0, &ctrl.BusOp{
			Tx: &bus.Transaction{Kind: bus.WriteLine, Addr: addr + uint32(off),
				Data: slot[off : off+bus.LineSize]},
		})
	}
	r.producer++
	var prod [8]byte
	binary.BigEndian.PutUint64(prod[:], uint64(r.producer))
	// The producer update is ordered after the slot writes by the command
	// queue, so the aP never sees a counter ahead of the data.
	r.e.IssueCommand(p, 0, &ctrl.BusOp{
		Tx: &bus.Transaction{Kind: bus.WriteWord, Addr: MissRingBase, Data: prod[:]},
	})
	r.stats.Written++
}
