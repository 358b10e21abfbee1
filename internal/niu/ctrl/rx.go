package ctrl

import (
	"encoding/binary"
	"fmt"

	"startvoyager/internal/bus"
	"startvoyager/internal/niu/sram"
	"startvoyager/internal/niu/txrx"
	"startvoyager/internal/sim"
)

// Receive slot formats.
//
// Basic queues (EntryBytes >= 8): src(2) logicalQ(2) len(2) reserved(2),
// payload from byte 8.
//
// Express queues (EntryBytes == 8): valid(1)=0x80 src(2) payload(5).

// TryReceive is the RxU entry point: the fabric offers a wire-encoded frame
// with its sideband trace tag. It reports acceptance; refusal (Hold policy
// on a full queue) stalls the packet's network lane until CTRL pokes the
// fabric.
// Frame ownership: the frame is decoded into a pooled record (frameGet) and
// recycled by whoever holds it when it dies — the drop paths here, the rxOp
// landing in acceptInto, or (on Hold refusal) this function before returning
// false. Command frames leave the pool for good: remote command execution
// retains them past this call.
//
//voyager:noalloc decodes into a pooled frame record
func (c *Ctrl) TryReceive(wire []byte, tag sim.MsgTag) bool {
	frame := c.frameGet()
	if err := txrx.DecodeInto(frame, wire); err != nil {
		c.framePut(frame)
		// A corrupted or malformed frame is network damage, not a protocol
		// event: count it, trace it, and accept-and-discard so the fabric
		// lane is freed (holding garbage would wedge the link forever).
		// The sideband trace tag survives the payload corruption, so the
		// drop stays attributed to its message.
		c.stats.RxGarbage++
		if c.eng.Observed() {
			c.eng.Instant(c.myNode, "ctrl", "rx-garbage", sim.Str("err", err.Error())) //voyager:alloc-ok(opt-in diagnostics on the garbage path)
			c.eng.MsgInstant(c.myNode, "ctrl", "msg-drop", tag, sim.Str("why", "garbage"))
		}
		return true
	}
	frame.Trace = tag
	if frame.Kind == txrx.Cmd {
		// Remote commands always land in the (unbounded-from-the-network's-
		// view, firmware-bounded in practice) remote command queue. The
		// frame is not recycled — command execution owns it from here.
		c.remote.enqueue(frame) //voyager:alloc-ok(command frames leave the alloc-free path here)
		return true
	}
	q := c.lookupRx(frame.LogicalQ)
	if q < 0 {
		// Unresident logical queue: divert to the miss queue.
		c.stats.RxMisses++
		q = MissQueue
	}
	if !c.acceptInto(q, frame) {
		c.framePut(frame)
		return false
	}
	return true
}

// lookupRx is the cache-tag style search for a resident logical queue.
//
//voyager:noalloc
func (c *Ctrl) lookupRx(logical uint16) int {
	for i := 0; i < NumQueues; i++ {
		rq := &c.rx[i]
		if rq.cfg.Buf != nil && rq.cfg.Enabled && rq.cfg.Logical == logical {
			return i
		}
	}
	return -1
}

// acceptInto applies the full policy and, if the message is accepted,
// schedules the RxU + IBus work that lands it in SRAM. It takes ownership of
// the (pooled) frame iff it returns true; on a Hold refusal the caller still
// owns it.
//
//voyager:noalloc rides a pooled rxOp record
func (c *Ctrl) acceptInto(q int, frame *txrx.Frame) bool {
	rq := &c.rx[q]
	if rq.cfg.Buf == nil || !rq.cfg.Enabled {
		c.stats.RxDrops++
		c.eng.MsgInstant(c.myNode, "ctrl", "msg-drop", frame.Trace, sim.Str("why", "rx-disabled"))
		c.framePut(frame)
		return true
	}
	if rq.full() {
		switch rq.cfg.Full {
		case Drop:
			c.stats.RxDrops++
			c.eng.MsgInstant(c.myNode, "ctrl", "msg-drop", frame.Trace, sim.Str("why", "rx-full"))
			c.framePut(frame)
			return true
		case Divert:
			if q != MissQueue {
				c.stats.RxMisses++
				return c.acceptInto(MissQueue, frame)
			}
			c.stats.RxDrops++
			c.eng.MsgInstant(c.myNode, "ctrl", "msg-drop", frame.Trace, sim.Str("why", "rx-full"))
			c.framePut(frame)
			return true
		default: // Hold
			c.stats.RxHolds++
			rq.holding = true
			return false
		}
	}
	rq.reserved++
	ptr := rq.producer + rq.reserved - 1
	o := c.rxOpGet()
	o.q = q
	o.ptr = ptr
	o.off = SlotOffset(rq.cfg.Base, rq.cfg.EntryBytes, rq.cfg.Entries, ptr)
	o.frame = frame
	c.eng.Schedule(c.cycles(c.cfg.RxUCycles), o.moveFn)
	return true
}

// rxOp is one in-flight receive landing: RxU formatting delay, then the IBus
// move, then the SRAM write that publishes the message. Pooled (not staged
// on the Ctrl) because several landings can be in flight at once
// (rq.reserved tracks them). It owns its frame until land recycles it.
type rxOp struct {
	c      *Ctrl
	q      int
	ptr    uint32
	off    uint32
	frame  *txrx.Frame
	moveFn func()
	landFn func()
}

//voyager:noalloc
func (o *rxOp) move() {
	o.c.ibusMove(o.c.rx[o.q].cfg.EntryBytes, o.landFn)
}

// land writes the slot and publishes the producer pointer. The compose
// scratch (c.rxSlot) is shared by all landings: land runs as one synchronous
// event and the slot is fully written to SRAM before it returns, so there is
// no overlap. It is zeroed first — the whole slot is SRAM-visible state and
// must not inherit bytes from a previous landing.
//
//voyager:noalloc
func (o *rxOp) land() {
	c, q, ptr, off, frame := o.c, o.q, o.ptr, o.off, o.frame
	o.frame = nil
	c.rxFree = append(c.rxFree, o) //voyager:alloc-ok(amortized: pool backing array is retained)
	rq := &c.rx[q]
	if rq.cfg.Express {
		var slot [ExpressSlotBytes]byte
		slot[0] = 0x80
		binary.BigEndian.PutUint16(slot[1:], frame.SrcNode)
		n := len(frame.Payload)
		if n > ExpressPayload {
			n = ExpressPayload
		}
		copy(slot[3:], frame.Payload[:n])
		rq.cfg.Buf.Write(off, slot[:])
	} else {
		if cap(c.rxSlot) < rq.cfg.EntryBytes {
			c.rxSlot = make([]byte, rq.cfg.EntryBytes) //voyager:alloc-ok(scratch grows once to the largest slot size)
		}
		slot := c.rxSlot[:rq.cfg.EntryBytes]
		for i := range slot {
			slot[i] = 0
		}
		binary.BigEndian.PutUint16(slot[0:], frame.SrcNode)
		binary.BigEndian.PutUint16(slot[2:], frame.LogicalQ)
		binary.BigEndian.PutUint16(slot[4:], uint16(len(frame.Payload)))
		n := len(frame.Payload)
		if n > rq.cfg.EntryBytes-SlotHeaderBytes {
			panic(fmt.Sprintf("ctrl: node %d: %d-byte message for %d-byte rx%d slots", //voyager:alloc-ok(panic path)
				c.myNode, n, rq.cfg.EntryBytes, q))
		}
		copy(slot[SlotHeaderBytes:], frame.Payload)
		rq.cfg.Buf.Write(off, slot)
	}
	if len(rq.tags) > 0 {
		rq.tags[int(ptr)%len(rq.tags)] = frame.Trace
	}
	c.eng.MsgInstant(c.myNode, "ctrl", "msg-enq", frame.Trace, sim.Int("rxq", q))
	rq.reserved--
	rq.producer++
	c.shadowRx(q)
	c.sampleRx(q)
	c.stats.RxMessages++
	c.stats.RxBytes += uint64(len(frame.Payload))
	c.rxSizeHist.Observe(int64(len(frame.Payload)))
	c.framePut(frame)
	if rq.cfg.Interrupt && c.ints != nil {
		c.ints.RxInterrupt(q)
	}
}

// rxOpGet returns a recycled (or new) rxOp with its method values bound.
//
//voyager:noalloc
func (c *Ctrl) rxOpGet() *rxOp {
	if n := len(c.rxFree); n > 0 {
		o := c.rxFree[n-1]
		c.rxFree = c.rxFree[:n-1]
		return o
	}
	o := &rxOp{c: c}  //voyager:alloc-ok(pool warm-up; recycled thereafter)
	o.moveFn = o.move //voyager:alloc-ok(one-time method binding for the pooled record)
	o.landFn = o.land //voyager:alloc-ok(one-time method binding for the pooled record)
	return o
}

// ReadRxSlot decodes the message at the given receive pointer (a firmware /
// library convenience over the raw SRAM layout; callers account their own
// access timing).
func (c *Ctrl) ReadRxSlot(q int, ptr uint32) (src uint16, logical uint16, payload []byte) {
	c.checkQ(q)
	rq := &c.rx[q]
	off := SlotOffset(rq.cfg.Base, rq.cfg.EntryBytes, rq.cfg.Entries, ptr)
	slot := make([]byte, rq.cfg.EntryBytes)
	rq.cfg.Buf.Read(off, slot)
	if rq.cfg.Express {
		return binary.BigEndian.Uint16(slot[1:]), rq.cfg.Logical, append([]byte(nil), slot[3:8]...)
	}
	n := int(binary.BigEndian.Uint16(slot[4:]))
	return binary.BigEndian.Uint16(slot[0:]), binary.BigEndian.Uint16(slot[2:]),
		append([]byte(nil), slot[SlotHeaderBytes:SlotHeaderBytes+n]...)
}

// remoteQueue executes command frames from other nodes strictly in order.
type remoteQueue struct {
	c     *Ctrl
	items []*txrx.Frame
	busy  bool
}

func newRemoteQueue(c *Ctrl) *remoteQueue { return &remoteQueue{c: c} }

func (r *remoteQueue) enqueue(f *txrx.Frame) {
	r.items = append(r.items, f)
	r.kick()
}

func (r *remoteQueue) kick() {
	if r.busy || len(r.items) == 0 {
		return
	}
	f := r.items[0]
	r.items = r.items[1:]
	r.busy = true
	r.c.stats.RemoteCmds++
	r.c.execRemote(f, func() {
		r.busy = false
		r.kick()
	})
}

// execRemote performs one remote command.
func (c *Ctrl) execRemote(f *txrx.Frame, done func()) {
	c.eng.MsgInstant(c.myNode, "ctrl", "msg-exec", f.Trace, sim.Str("op", f.Op.String()))
	switch f.Op {
	case txrx.CmdWriteDram, txrx.CmdWriteDramCls:
		c.writeDramLines(f.Addr, f.Payload, func() {
			if f.Op == txrx.CmdWriteDramCls {
				c.setClsForRange(f.Addr, len(f.Payload), sram.LineState(f.Aux))
			}
			done()
		})
	case txrx.CmdSetCls:
		c.setClsLines(f.Addr, int(f.Count), sram.LineState(f.Aux))
		c.eng.Schedule(c.cycles(1), done)
	case txrx.CmdNotify:
		g := &txrx.Frame{Kind: txrx.Data, SrcNode: f.SrcNode, LogicalQ: f.Aux,
			Payload: f.Payload, Trace: f.Trace}
		q := c.lookupRx(g.LogicalQ)
		if q < 0 {
			c.stats.RxMisses++
			q = MissQueue
		}
		// Notify deliveries ignore Hold (they bypass via accept-or-miss: a
		// refused notify would deadlock the remote command queue).
		if !c.acceptInto(q, g) {
			c.rx[q].holding = false
			c.stats.RxDrops++
			c.eng.MsgInstant(c.myNode, "ctrl", "msg-drop", g.Trace, sim.Str("why", "notify-hold"))
		}
		done()
	case txrx.CmdWriteSram:
		c.ibusMove(len(f.Payload), func() {
			c.aSRAM.Write(f.Addr, f.Payload)
			done()
		})
	case txrx.CmdWriteWord:
		c.ibusMove(len(f.Payload), func() {
			tx := &bus.Transaction{Kind: bus.WriteWord, Addr: f.Addr,
				Data: append([]byte(nil), f.Payload...)}
			c.busPort.IssueBusOp(tx, done)
		})
	default:
		panic(fmt.Sprintf("ctrl: node %d: unknown remote command %v", c.myNode, f.Op))
	}
}

// writeDramLines issues WriteLine bus operations for each 32-byte line of
// data starting at addr (moving the data across the IBus first).
func (c *Ctrl) writeDramLines(addr uint32, data []byte, done func()) {
	if len(data)%bus.LineSize != 0 || addr%bus.LineSize != 0 {
		panic(fmt.Sprintf("ctrl: node %d: unaligned remote DRAM write %#x+%d",
			c.myNode, addr, len(data)))
	}
	var step func(i int)
	step = func(i int) {
		if i*bus.LineSize >= len(data) {
			done()
			return
		}
		line := data[i*bus.LineSize : (i+1)*bus.LineSize]
		c.ibusMove(bus.LineSize, func() {
			tx := &bus.Transaction{Kind: bus.WriteLine, Addr: addr + uint32(i*bus.LineSize),
				Data: line}
			c.busPort.IssueBusOp(tx, func() { step(i + 1) })
		})
	}
	step(0)
}

// setClsForRange updates clsSRAM states for the lines covered by
// [addr, addr+n) — the approach-5 aBIU extension.
func (c *Ctrl) setClsForRange(addr uint32, n int, st sram.LineState) {
	c.setClsLines(addr, (n+bus.LineSize-1)/bus.LineSize, st)
}

func (c *Ctrl) setClsLines(addr uint32, count int, st sram.LineState) {
	if c.cls == nil || !c.scoma.Contains(addr) {
		return
	}
	first := int(c.scoma.Offset(addr)) / bus.LineSize
	c.cls.SetRange(first, first+count, st)
}
