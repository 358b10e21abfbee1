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
// Frame ownership: the frame is decoded into a pooled record (frameGet),
// reusing its payload capacity, and recycled by whoever holds it when it
// dies — the drop paths here, the rxOp landing in acceptInto, the remote
// command queue when the command finishes, or (on Hold refusal) this
// function before returning false.
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
		// view, firmware-bounded in practice) remote command queue, which
		// owns the frame from here.
		c.enqueueRemote(frame) //voyager:alloc-ok(pool warm-up and amortized growth: the queue is built on its first command and keeps its storage)
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
	for i, rq := range &c.rx {
		if rq != nil && rq.cfg.Buf != nil && rq.cfg.Enabled && rq.cfg.Logical == logical {
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
	rq := c.rxq(q)
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
	rq := c.rx[q]
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
	setTag(&rq.tags, rq.cfg.Entries, ptr, frame.Trace)
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
// access timing). The slot header is read onto the stack, so the payload,
// which the caller owns, is its only allocation.
func (c *Ctrl) ReadRxSlot(q int, ptr uint32) (src uint16, logical uint16, payload []byte) {
	c.checkQ(q)
	rq := c.rxq(q)
	off := SlotOffset(rq.cfg.Base, rq.cfg.EntryBytes, rq.cfg.Entries, ptr)
	var hdr [SlotHeaderBytes]byte
	rq.cfg.Buf.Read(off, hdr[:])
	if rq.cfg.Express {
		return binary.BigEndian.Uint16(hdr[1:]), rq.cfg.Logical, append([]byte(nil), hdr[3:8]...)
	}
	n := int(binary.BigEndian.Uint16(hdr[4:]))
	if n > rq.cfg.EntryBytes-SlotHeaderBytes {
		panic(fmt.Sprintf("ctrl: node %d: rx%d slot %d claims a %d-byte payload in %d-byte slots",
			c.myNode, q, ptr, n, rq.cfg.EntryBytes))
	}
	if n > 0 {
		payload = make([]byte, n)
		rq.cfg.Buf.Read(off+SlotHeaderBytes, payload)
	}
	return binary.BigEndian.Uint16(hdr[0:]), binary.BigEndian.Uint16(hdr[2:]), payload
}

// remoteQueue executes command frames from other nodes strictly in order,
// one at a time, so the running command and its progress are staged on the
// queue (cur, line, tx) and its steps continue through the queue's method
// values. Like a local queue, it is built on its first command.
type remoteQueue struct {
	c     *Ctrl
	items []*txrx.Frame
	busy  bool

	cur  *txrx.Frame     // the running command
	line int             // a DRAM write's next line
	tx   bus.Transaction // the running command's bus write

	finishFn, lineFn, lineDoneFn, sramFn, wordFn func()
}

// enqueueRemote hands a command frame to the remote queue, building the
// queue on the first one.
func (c *Ctrl) enqueueRemote(f *txrx.Frame) {
	if c.remote == nil {
		r := &remoteQueue{c: c}
		r.finishFn, r.lineFn, r.lineDoneFn = r.finish, r.writeLine, r.lineDone
		r.sramFn, r.wordFn = r.writeSram, r.writeWord
		c.remote = r
	}
	c.remote.enqueue(f)
}

// enqueue takes a command frame off the network. A command CTRL cannot
// execute (an unknown op, a DRAM write off line alignment) is refused here,
// as it lands.
func (r *remoteQueue) enqueue(f *txrx.Frame) {
	switch f.Op {
	case txrx.CmdWriteDram, txrx.CmdWriteDramCls:
		if len(f.Payload)%bus.LineSize != 0 || f.Addr%bus.LineSize != 0 {
			panic(fmt.Sprintf("ctrl: node %d: unaligned remote DRAM write %#x+%d",
				r.c.myNode, f.Addr, len(f.Payload)))
		}
	case txrx.CmdSetCls, txrx.CmdNotify, txrx.CmdWriteSram, txrx.CmdWriteWord:
	default:
		panic(fmt.Sprintf("ctrl: node %d: unknown remote command %v", r.c.myNode, f.Op))
	}
	r.items = append(r.items, f)
	r.kick()
}

// kick starts the next remote command if the queue is idle.
//
//voyager:noalloc
func (r *remoteQueue) kick() {
	if r.busy || len(r.items) == 0 {
		return
	}
	r.cur = r.items[0]
	r.items = sim.PopFront(r.items)
	r.busy = true
	r.c.stats.RemoteCmds++
	r.exec()
}

// exec performs the running remote command (enqueue vetted its op).
//
//voyager:noalloc
func (r *remoteQueue) exec() {
	c, f := r.c, r.cur
	c.eng.MsgInstant(c.myNode, "ctrl", "msg-exec", f.Trace, sim.Str("op", f.Op.String()))
	switch f.Op {
	case txrx.CmdWriteDram, txrx.CmdWriteDramCls:
		r.line = 0
		r.nextLine()
	case txrx.CmdSetCls:
		c.setClsLines(f.Addr, int(f.Count), sram.LineState(f.Aux))
		c.eng.Schedule(c.cycles(1), r.finishFn)
	case txrx.CmdNotify:
		// The notification lands by alias: its data frame takes the command
		// frame's payload buffer and hands over its own in exchange, so the
		// command frame can go back to the pool at finish while the landing
		// still reads the payload.
		g := c.frameGet()
		buf := g.Payload
		*g = txrx.Frame{Kind: txrx.Data, SrcNode: f.SrcNode, LogicalQ: f.Aux,
			Payload: f.Payload, Trace: f.Trace}
		f.Payload = buf[:0]
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
			c.framePut(g)
		}
		r.finish()
	case txrx.CmdWriteSram:
		c.ibusMove(len(f.Payload), r.sramFn)
	case txrx.CmdWriteWord:
		c.ibusMove(len(f.Payload), r.wordFn)
	}
}

// nextLine writes the running DRAM write's next 32-byte line (across the
// IBus, then as a bus WriteLine); after the last line a WriteDramCls
// updates the lines' clsSRAM state, and the queue moves on.
//
//voyager:noalloc
func (r *remoteQueue) nextLine() {
	f := r.cur
	if r.line*bus.LineSize >= len(f.Payload) {
		if f.Op == txrx.CmdWriteDramCls {
			r.c.setClsForRange(f.Addr, len(f.Payload), sram.LineState(f.Aux))
		}
		r.finish()
		return
	}
	r.c.ibusMove(bus.LineSize, r.lineFn)
}

// writeLine issues the staged line's bus write once it has crossed the IBus.
//
//voyager:noalloc
func (r *remoteQueue) writeLine() {
	f, i := r.cur, r.line
	r.tx = bus.Transaction{Kind: bus.WriteLine, Addr: f.Addr + uint32(i*bus.LineSize),
		Data: f.Payload[i*bus.LineSize : (i+1)*bus.LineSize]}
	r.c.busPort.IssueBusOp(&r.tx, r.lineDoneFn)
}

//voyager:noalloc
func (r *remoteQueue) lineDone() {
	r.line++
	r.nextLine()
}

// writeSram lands a WriteSram's payload in the aSRAM.
//
//voyager:noalloc
func (r *remoteQueue) writeSram() {
	r.c.aSRAM.Write(r.cur.Addr, r.cur.Payload)
	r.finish()
}

// writeWord issues a WriteWord's bus write once its data has crossed the
// IBus.
//
//voyager:noalloc
func (r *remoteQueue) writeWord() {
	f := r.cur
	r.tx = bus.Transaction{Kind: bus.WriteWord, Addr: f.Addr, Data: f.Payload}
	r.c.busPort.IssueBusOp(&r.tx, r.finishFn)
}

// finish retires the running remote command, recycling its frame, and
// starts the next.
//
//voyager:noalloc
func (r *remoteQueue) finish() {
	r.c.framePut(r.cur)
	r.cur = nil
	r.busy = false
	r.kick()
}

// setClsForRange updates clsSRAM states for the lines covered by
// [addr, addr+n) — the approach-5 aBIU extension.
//
//voyager:noalloc
func (c *Ctrl) setClsForRange(addr uint32, n int, st sram.LineState) {
	c.setClsLines(addr, (n+bus.LineSize-1)/bus.LineSize, st)
}

// setClsLines sets count clsSRAM lines from the one holding addr (an
// S-COMA address; other addresses have no clsSRAM state).
//
//voyager:noalloc
func (c *Ctrl) setClsLines(addr uint32, count int, st sram.LineState) {
	if c.cls == nil || !c.scoma.Contains(addr) {
		return
	}
	first := int(c.scoma.Offset(addr)) / bus.LineSize
	c.cls.SetRange(first, first+count, st)
}
