package core

import (
	"encoding/binary"
	"fmt"

	"startvoyager/internal/arctic"
	"startvoyager/internal/firmware"
	"startvoyager/internal/niu/ctrl"
	"startvoyager/internal/sim"
)

// Support for the large receive-queue namespace: messages addressed to a
// logical queue that is not resident in the NIU's 16 hardware queues divert
// to the miss/overflow queue, where firmware writes them to a DRAM ring —
// "selectively caching queues enables the NIU to support a large number of
// logical destinations efficiently". The aP reads that ring with ordinary
// cached loads; bus snooping keeps the polls coherent with the NIU's writes.

// TransUser is the first translation-table index available for
// application-defined virtual destinations.
const TransUser = 224

// MapVirtualDest programs translation entry virt to deliver to destNode's
// logical queue logicalQ (setup-time configuration, as the OS would do).
func (a *API) MapVirtualDest(virt int, destNode int, logicalQ uint16) {
	if virt < TransUser || virt > 255 {
		panic(fmt.Sprintf("core: user virtual destination %d outside [%d,255]", virt, TransUser))
	}
	a.n.Ctrl.WriteTransEntry(virt, ctrl.TransEntry{
		PhysNode: uint16(destNode), LogicalQ: logicalQ,
		Priority: arctic.Low, Valid: true,
	})
}

// SendVirtual sends a Basic-queue message to a previously mapped virtual
// destination (which may name a non-resident logical queue).
func (a *API) SendVirtual(p *sim.Proc, virt int, payload []byte) {
	a.sendSlot(p, "SendVirtual", txBasicQ, virt, 0, payload, 0, 0, false)
}

// TryRecvOverflow polls the DRAM overflow ring for one message delivered to
// a non-resident logical queue.
func (a *API) TryRecvOverflow(p *sim.Proc) (src int, logicalQ uint16, payload []byte, ok bool) {
	defer a.busy(p, "TryRecvOverflow")()
	var prod [8]byte
	a.n.Cache.Load(p, firmware.MissRingBase, prod[:])
	producer := uint32(binary.BigEndian.Uint64(prod[:]))
	if producer == a.overflowCons {
		return 0, 0, nil, false
	}
	slot := make([]byte, firmware.RingSlotBytes)
	a.n.Cache.Load(p, firmware.RingSlotAddr(a.overflowCons), slot)
	n := int(binary.BigEndian.Uint16(slot[4:]))
	src = int(binary.BigEndian.Uint16(slot[0:]))
	logicalQ = binary.BigEndian.Uint16(slot[2:])
	payload = append([]byte(nil), slot[8:8+n]...)
	a.overflowCons++
	var cons [8]byte
	binary.BigEndian.PutUint64(cons[:], uint64(a.overflowCons))
	// Publish the consumer counter; the firmware's uncached read will pull
	// it from the cache by intervention.
	a.n.Cache.Store(p, firmware.MissRingBase+8, cons[:])
	return src, logicalQ, payload, true
}

// RecvOverflow blocks until a non-resident-queue message arrives.
func (a *API) RecvOverflow(p *sim.Proc) (src int, logicalQ uint16, payload []byte) {
	src, logicalQ, payload, _ = a.RecvOverflowTimeout(p, noDeadline)
	return src, logicalQ, payload
}

// RecvOverflowTimeout is RecvOverflow with a bound: after timeout of
// simulated time with no message it returns a *TimeoutError.
func (a *API) RecvOverflowTimeout(p *sim.Proc, timeout sim.Time) (src int, logicalQ uint16, payload []byte, err error) {
	err = a.pollWait(p, "RecvOverflow", timeout, func() bool {
		s, lq, pl, ok := a.TryRecvOverflow(p)
		if ok {
			src, logicalQ, payload = s, lq, pl
		}
		return ok
	})
	return src, logicalQ, payload, err
}
