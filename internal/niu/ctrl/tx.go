package ctrl

import (
	"encoding/binary"
	"fmt"

	"startvoyager/internal/arctic"
	"startvoyager/internal/niu/txrx"
	"startvoyager/internal/sim"
)

// Transmit slot format (software composes this into the queue's SRAM slot):
//
//	bytes 0-1  destination (virtual; physical node when the raw flag is set)
//	byte  2    flags (see Slot* constants)
//	byte  3    inline payload length
//	bytes 4-6  TagOn SRAM offset (24-bit)     | raw: bytes 4-5 logical queue
//	byte  7    TagOn length in 16-byte units (0..5, i.e. up to 2.5 lines)
//	bytes 8+   inline payload
//
// Express queues use an 8-byte slot composed by the aBIU from a single
// uncached store: dest(2) len(1) payload(5).
const (
	SlotFlagTagOn    = 1 << 0 // append TagOn data from SRAM
	SlotFlagRaw      = 1 << 1 // bypass translation: dest is physical, lane is low
	SlotFlagTagASram = 1 << 4 // TagOn data lives in aSRAM (else sSRAM)
)

// ExpressSlotBytes is the express queue entry size.
const ExpressSlotBytes = 8

// ExpressPayload is the express message payload size (one five-byte word).
const ExpressPayload = 5

// kickTx starts the transmit arbiter if it is idle.
//
//voyager:noalloc
func (c *Ctrl) kickTx() {
	if c.txBusy {
		return
	}
	q := c.pickTx()
	if q < 0 {
		return
	}
	c.txBusy = true
	c.launchFrom(q)
}

// pickTx selects the next transmit queue: best (lowest) priority class wins;
// round-robin within the class.
//
//voyager:noalloc
func (c *Ctrl) pickTx() int {
	best, bestPri := -1, 0
	for i := 0; i < NumQueues; i++ {
		q := (c.txRR + 1 + i) % NumQueues
		tq := &c.tx[q]
		if tq.cfg.Buf == nil || !tq.cfg.Enabled || tq.shutdown || tq.parked ||
			tq.pending() == 0 {
			continue
		}
		if best < 0 || tq.cfg.Priority < bestPri {
			best, bestPri = q, tq.cfg.Priority
		}
	}
	return best
}

// launchFrom reads, translates and launches the head message of queue q,
// then re-arms the arbiter. The whole pipeline runs on the Ctrl's staged
// launch record (ln* fields) — txBusy serializes launches end to end, so the
// record is never restaged while a launch is in flight (a parked or violated
// launch abandons it; the head slot is re-read on relaunch).
//
//voyager:noalloc staged launch record; pipeline serialized by txBusy
func (c *Ctrl) launchFrom(q int) {
	tq := &c.tx[q]
	c.lnQ = q
	c.lnOff = SlotOffset(tq.cfg.Base, tq.cfg.EntryBytes, tq.cfg.Entries, tq.consumer)
	c.lnTag = c.txTag(q, tq.consumer)
	// Pull the slot across the IBus.
	c.ibusMove(tq.cfg.EntryBytes, c.lnReadFn)
}

// lnRead lands the head slot in the launch scratch and dispatches on the
// queue flavor.
//
//voyager:noalloc
func (c *Ctrl) lnRead() {
	tq := &c.tx[c.lnQ]
	if cap(c.lnSlot) < tq.cfg.EntryBytes {
		c.lnSlot = make([]byte, tq.cfg.EntryBytes) //voyager:alloc-ok(scratch grows once to the largest slot size)
	}
	slot := c.lnSlot[:tq.cfg.EntryBytes]
	tq.cfg.Buf.Read(c.lnOff, slot)
	if tq.cfg.Express {
		c.launchExpress(c.lnQ, slot, c.lnTag)
		return
	}
	c.launchBasic(c.lnQ, slot, c.lnTag)
}

//voyager:noalloc
func (c *Ctrl) launchExpress(q int, slot []byte, tag sim.MsgTag) {
	dest := binary.BigEndian.Uint16(slot[0:])
	n := int(slot[2])
	if n > ExpressPayload {
		n = ExpressPayload
	}
	pl := c.lnFrame.Payload
	c.lnFrame = txrx.Frame{Kind: txrx.Data, SrcNode: uint16(c.myNode), Trace: tag}
	c.lnFrame.Payload = append(pl[:0], slot[3:3+n]...)
	c.translateAndSend(q, dest, true)
}

//voyager:noalloc
func (c *Ctrl) launchBasic(q int, slot []byte, tag sim.MsgTag) {
	tq := &c.tx[q]
	dest := binary.BigEndian.Uint16(slot[0:])
	flags := slot[2]
	n := int(slot[3])
	if n > tq.cfg.EntryBytes-SlotHeaderBytes {
		c.violate(q, tag)
		return
	}
	pl := c.lnFrame.Payload
	c.lnFrame = txrx.Frame{Kind: txrx.Data, SrcNode: uint16(c.myNode), Trace: tag}
	c.lnFrame.Payload = append(pl[:0], slot[8:8+n]...)
	c.lnDest = dest
	c.lnFlags = flags
	c.lnRawLQ = binary.BigEndian.Uint16(slot[4:])

	if flags&SlotFlagTagOn != 0 {
		tagOff := uint32(slot[4])<<16 | uint32(slot[5])<<8 | uint32(slot[6])
		tagLen := int(slot[7]) * 16
		if tagLen > 0 {
			bank := c.sSRAM
			if flags&SlotFlagTagASram != 0 {
				bank = c.aSRAM
			}
			if len(c.lnFrame.Payload)+tagLen > txrx.MaxDataPayload {
				c.violate(q, tag)
				return
			}
			c.stats.TagOns++
			c.lnTagBank, c.lnTagOff, c.lnTagLen = bank, tagOff, tagLen
			// Pull the TagOn data across the IBus and append it.
			c.ibusMove(tagLen, c.lnTagOnFn)
			return
		}
	}
	c.lnFinish()
}

// lnTagOn appends the staged TagOn bytes once their IBus pull completes.
//
//voyager:noalloc payload append stays within MaxDataPayload capacity after warm-up
func (c *Ctrl) lnTagOn() {
	c.lnFrame.Payload = c.lnTagBank.Append(c.lnFrame.Payload, c.lnTagOff, c.lnTagLen)
	c.lnFinish()
}

// lnFinish applies raw-message protection and routes the staged frame to
// translation or directly to the TxU.
//
//voyager:noalloc
func (c *Ctrl) lnFinish() {
	q := c.lnQ
	tq := &c.tx[q]
	flags := c.lnFlags
	translate := tq.cfg.Translate && flags&SlotFlagRaw == 0
	if flags&SlotFlagRaw != 0 && !tq.cfg.RawAllowed {
		c.violate(q, c.lnFrame.Trace)
		return
	}
	if !translate {
		c.lnFrame.LogicalQ = c.lnRawLQ
	}
	c.translateAndSend(q, c.lnDest, translate)
}

// translateAndSend applies destination translation and protection to the
// staged launch frame (c.lnFrame), then hands it to the TxU. An untranslated
// message takes the low-priority lane; a translated one, its entry's lane.
//
//voyager:noalloc
func (c *Ctrl) translateAndSend(q int, dest uint16, translate bool) {
	if !translate {
		c.lnSend(q, dest, arctic.Low)
		return
	}
	tq := &c.tx[q]
	c.lnTrIdx = int(dest&tq.cfg.AndMask|tq.cfg.OrMask) % c.transEntries
	// Translation table lookup crosses the IBus (one 8-byte entry).
	c.ibusMove(8, c.lnTransFn)
}

// lnTrans consumes the staged translation lookup.
//
//voyager:noalloc
func (c *Ctrl) lnTrans() {
	q := c.lnQ
	e := c.readTransEntry(c.lnTrIdx)
	if !e.Valid {
		c.violate(q, c.lnFrame.Trace)
		return
	}
	c.lnFrame.LogicalQ = e.LogicalQ
	c.lnSend(q, e.PhysNode, e.Priority)
}

// lnSend is the protection check + backpressure gate in front of the TxU.
//
//voyager:noalloc
func (c *Ctrl) lnSend(q int, phys uint16, pri arctic.Priority) {
	tq := &c.tx[q]
	if tq.cfg.AllowedDests>>(phys%64)&1 == 0 {
		c.violate(q, c.lnFrame.Trace)
		return
	}
	if len(c.emitPending[pri]) > 0 || !c.net.Ready(pri) {
		// The lane is backpressured: park this queue (its head will be
		// re-read and relaunched when room returns) and let queues
		// bound for the other lane keep launching.
		tq.parked = true
		tq.parkedPri = pri
		c.txBusy = false
		c.kickTx()
		return
	}
	c.emit(&c.lnFrame, int(phys), pri, c.lnDoneFn)
}

// lnDone retires the launched message: advance the consumer, publish, and
// re-arm the arbiter. It runs while txBusy still holds the staged record, so
// lnQ and lnFrame are the message that was just injected.
//
//voyager:noalloc
func (c *Ctrl) lnDone() {
	q := c.lnQ
	tq := &c.tx[q]
	tq.consumer++
	c.shadowTx(q)
	c.sampleTx(q)
	c.stats.TxMessages++
	c.stats.TxBytes += uint64(len(c.lnFrame.Payload))
	c.txRR = q
	c.txBusy = false
	c.kickTx()
}

// pendingEmit is a launch deferred by fabric backpressure.
type pendingEmit struct {
	wire []byte
	phys int
	pri  arctic.Priority
	tag  sim.MsgTag
	done func()
}

// emitOp is one in-flight TxU inject event: a recycled record whose prebound
// method value stands in for the Schedule closure. Pooled (not staged on the
// Ctrl) because the command queues and block units emit concurrently with
// the launch pipeline.
type emitOp struct {
	c        *Ctrl
	wire     []byte
	phys     int
	pri      arctic.Priority
	tag      sim.MsgTag
	done     func()
	injectFn func()
}

//voyager:noalloc
func (o *emitOp) inject() {
	c, wire, phys, pri, tag, done := o.c, o.wire, o.phys, o.pri, o.tag, o.done
	o.wire, o.done = nil, nil
	c.emFree = append(c.emFree, o) //voyager:alloc-ok(amortized: pool backing array is retained)
	c.net.Inject(phys, pri, wire, tag)
	done()
}

// emitOpGet returns a recycled (or new) emitOp with its method value bound.
//
//voyager:noalloc
func (c *Ctrl) emitOpGet() *emitOp {
	if n := len(c.emFree); n > 0 {
		o := c.emFree[n-1]
		c.emFree = c.emFree[:n-1]
		return o
	}
	o := &emitOp{c: c}    //voyager:alloc-ok(pool warm-up; recycled thereafter)
	o.injectFn = o.inject //voyager:alloc-ok(one-time method binding for the pooled record)
	return o
}

// emit runs the TxU formatting and injects the encoded frame. When the
// fabric's injection buffering is full, the launch (and everything behind
// it) waits until the fabric signals readiness — finite network buffering
// propagates backpressure into the NIU and from there to software.
//
// The frame itself is the caller's (it may be the staged launch scratch);
// emit does not retain it past this call.
//
//voyager:noalloc wire buffer is the one per-message allocation (it travels in the packet)
func (c *Ctrl) emit(frame *txrx.Frame, phys int, pri arctic.Priority, done func()) {
	wire, err := txrx.Encode(frame) //voyager:alloc-ok(wire bytes travel inside the packet until remote delivery; recycling at the destination would accumulate unboundedly under one-way traffic)
	if err != nil {
		panic(fmt.Sprintf("ctrl: node %d: %v", c.myNode, err)) //voyager:alloc-ok(panic path)
	}
	// The message has left its queue and owns the TxU: one launch per
	// attempt, even if injection is then deferred by backpressure.
	c.eng.MsgInstant(c.myNode, "ctrl", "msg-launch", frame.Trace, sim.Int("dst", phys))
	if len(c.emitPending[pri]) > 0 || !c.net.Ready(pri) {
		c.emitPending[pri] = append(c.emitPending[pri], pendingEmit{wire, phys, pri, frame.Trace, done}) //voyager:alloc-ok(backpressure path)
		return
	}
	o := c.emitOpGet()
	o.wire, o.phys, o.pri, o.tag, o.done = wire, phys, pri, frame.Trace, done
	c.eng.Schedule(c.cycles(c.cfg.TxUCycles), o.injectFn)
}

// NetReady drains deferred launches; the node's fabric adapter calls it
// whenever injection room returns on any lane.
func (c *Ctrl) NetReady() {
	for pri := arctic.Priority(0); pri < 2; pri++ {
		for len(c.emitPending[pri]) > 0 && c.net.Ready(pri) {
			pe := c.emitPending[pri][0]
			c.emitPending[pri] = c.emitPending[pri][1:]
			o := c.emitOpGet()
			o.wire, o.phys, o.pri, o.tag, o.done = pe.wire, pe.phys, pe.pri, pe.tag, pe.done
			c.eng.Schedule(c.cycles(c.cfg.TxUCycles), o.injectFn)
		}
	}
	unparked := false
	for q := range c.tx {
		tq := &c.tx[q]
		if tq.parked && len(c.emitPending[tq.parkedPri]) == 0 && c.net.Ready(tq.parkedPri) {
			tq.parked = false
			unparked = true
		}
	}
	if unparked {
		c.kickTx()
	}
}

// violate shuts down queue q and raises the protection interrupt. The
// offending message, traced as tag, is left at the head of the queue for
// firmware to inspect; the queue stops launching until re-enabled, and a
// relaunch continues the message's chain with a new msg-launch.
//
//voyager:noalloc
func (c *Ctrl) violate(q int, tag sim.MsgTag) {
	c.eng.MsgInstant(c.myNode, "ctrl", "msg-drop", tag, sim.Str("why", "protection"))
	tq := &c.tx[q]
	tq.shutdown = true
	tq.cfg.Enabled = false
	c.stats.ProtViolations++
	c.txBusy = false
	if c.ints != nil {
		c.ints.ProtViolation(q)
	}
	c.kickTx()
}

// ExpressCompose is the hardware path the aBIU uses to build and launch an
// express message from a single uncached store: it writes the 8-byte slot
// through CTRL into SRAM and bumps the producer pointer, all without
// processor involvement beyond the original store.
func (c *Ctrl) ExpressCompose(q int, dest uint16, payload []byte) {
	c.checkQ(q)
	tq := &c.tx[q]
	if !tq.cfg.Express {
		panic(fmt.Sprintf("ctrl: tx%d is not an express queue", q))
	}
	if len(payload) > ExpressPayload {
		payload = payload[:ExpressPayload]
	}
	if tq.pending() >= uint32(tq.cfg.Entries) {
		// Full express queue: the store is dropped on the floor; the
		// library-level protocol (paper: "single uncached store") relies on
		// software pacing. Count it for visibility.
		c.stats.RxDrops++
		return
	}
	// The uncached store is the moment the message enters the system: the
	// aBIU composes the slot, so the trace id is allocated here.
	tag := sim.MsgTag{ID: c.eng.NewMsgID()}
	c.StageTxTag(q, tq.producer, tag)
	c.eng.MsgInstant(c.myNode, "ctrl", "msg-send", tag, sim.Int("txq", q))
	slot := make([]byte, ExpressSlotBytes)
	binary.BigEndian.PutUint16(slot[0:], dest)
	slot[2] = byte(len(payload))
	copy(slot[3:], payload)
	off := SlotOffset(tq.cfg.Base, tq.cfg.EntryBytes, tq.cfg.Entries, tq.producer)
	c.ibusMove(ExpressSlotBytes, func() {
		tq.cfg.Buf.Write(off, slot)
		c.TxProducerUpdate(q, tq.producer+1)
	})
}

// ExpressReceive is the hardware path for the uncached load that receives an
// express message: it returns the slot word and frees the buffer. The result
// word layout is valid(1) src(2) payload(5); a canonical empty message (all
// zeros) is returned when no message is pending.
func (c *Ctrl) ExpressReceive(q int) [8]byte {
	c.checkQ(q)
	rq := &c.rx[q]
	var out [8]byte
	if rq.producer == rq.consumer {
		return out
	}
	off := SlotOffset(rq.cfg.Base, rq.cfg.EntryBytes, rq.cfg.Entries, rq.consumer)
	var slot [ExpressSlotBytes]byte
	rq.cfg.Buf.Read(off, slot[:])
	copy(out[:], slot[:])
	c.eng.MsgInstant(c.myNode, "aP", "msg-consume", c.RxTag(q, rq.consumer), sim.Int("rxq", q))
	c.RxConsumerUpdate(q, rq.consumer+1)
	return out
}
