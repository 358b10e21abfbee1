package ctrl

import (
	"fmt"

	"startvoyager/internal/arctic"
	"startvoyager/internal/bus"
	"startvoyager/internal/niu/sram"
	"startvoyager/internal/niu/txrx"
	"startvoyager/internal/sim"
)

// PageBytes is the block-operation limit: a block read or transmit may cover
// at most one aligned page, as in the hardware.
const PageBytes = 4096

// BlockTxChunk is the data carried per block-transmit packet: two cache
// lines, keeping remote DRAM writes line-aligned.
const BlockTxChunk = 2 * bus.LineSize

// Command is an operation issued through one of CTRL's local command queues
// by firmware (or by BIU state machines). Commands within a queue are issued
// and completed in order, with the exception of block operations, which are
// handed to their functional unit and complete in the background — exactly
// the ordering contract the paper specifies. The command types are the
// ones below; the queue runs each (see cmdQueue).
type Command interface {
	command() *Base
}

// Base carries the completion callback shared by all commands.
type Base struct {
	// Done, if non-nil, runs at command completion (the model's analogue of
	// a completion interrupt or flag write).
	Done func()
}

func (b *Base) command() *Base { return b }

// SendMsg launches a message directly from the command queue (the firmware
// transmit path: the destination is physical and protection is trusted).
type SendMsg struct {
	Base
	Frame    *txrx.Frame // SrcNode is filled in by CTRL
	Dest     uint16      // physical node
	Priority arctic.Priority
	// Optional TagOn data appended from SRAM.
	TagBuf *sram.SRAM
	TagOff uint32
	TagLen int
}

// startSend runs m as the queue's command: the TagOn pull (if any), the
// payload's IBus move into the Tx FIFO, then the TxU.
//
//voyager:noalloc
func (q *cmdQueue) startSend(m *SendMsg) {
	c := q.c
	m.Frame.SrcNode = uint16(c.myNode)
	if !m.Frame.Trace.Traced() {
		// First entry into the system: allocate the trace id here (keeping
		// any Parent link the issuer pre-set). Frames that arrive already
		// tagged — reliable-delivery retransmissions — keep their identity
		// so every attempt links to one logical message.
		m.Frame.Trace.ID = c.eng.NewMsgID()
		c.eng.MsgInstant(c.myNode, "ctrl", "msg-send", m.Frame.Trace)
	}
	q.msg = m
	if m.TagLen == 0 {
		q.sendMsg()
		return
	}
	c.stats.TagOns++
	c.ibusMove(m.TagLen, q.tagOnFn)
}

// tagOn appends the staged message's TagOn data once its IBus pull lands.
//
//voyager:noalloc payload append reuses the frame's capacity after warm-up
func (q *cmdQueue) tagOn() {
	m := q.msg
	m.Frame.Payload = m.TagBuf.Append(m.Frame.Payload, m.TagOff, m.TagLen)
	q.sendMsg()
}

// sendMsg moves the staged message's payload across the IBus into the Tx
// FIFO.
//
//voyager:noalloc
func (q *cmdQueue) sendMsg() {
	q.c.ibusMove(len(q.msg.Frame.Payload)+SlotHeaderBytes, q.emitFn)
}

// emitMsg formats and injects the staged message.
//
//voyager:noalloc
func (q *cmdQueue) emitMsg() {
	m := q.msg
	q.c.emit(m.Frame, int(m.Dest), m.Priority, q.sentFn)
}

// sent accounts the injected message and retires the command.
//
//voyager:noalloc
func (q *cmdQueue) sent() {
	c := q.c
	c.stats.TxMessages++
	c.stats.TxBytes += uint64(len(q.msg.Frame.Payload))
	q.finish()
}

// BusOp issues a single operation on the aP memory bus through the aBIU.
// Reads land in Tx.Data and, when ToBuf is set, in ToBuf at ToOff; writes
// take their data from Tx.Data.
type BusOp struct {
	Base
	Tx    *bus.Transaction
	ToBuf *sram.SRAM
	ToOff uint32
}

// startBusOp runs b as the queue's command.
//
//voyager:noalloc
func (q *cmdQueue) startBusOp(b *BusOp) {
	q.bop = b
	q.c.busPort.IssueBusOp(b.Tx, q.busDoneFn)
}

// busDone completes the staged bus operation; a read bound for an SRAM
// crosses the IBus first.
//
//voyager:noalloc
func (q *cmdQueue) busDone() {
	b := q.bop
	if b.Tx.Kind.IsRead() && b.ToBuf != nil {
		q.c.ibusMove(len(b.Tx.Data), q.busMovedFn)
		return
	}
	q.finish()
}

// busMoved lands the staged read in its SRAM.
//
//voyager:noalloc
func (q *cmdQueue) busMoved() {
	b := q.bop
	b.ToBuf.Write(b.ToOff, b.Tx.Data)
	q.finish()
}

// SetCls updates clsSRAM state for Count lines starting at the line
// containing Addr (an S-COMA address).
type SetCls struct {
	Base
	Addr  uint32
	Count int
	State sram.LineState
}

// startSetCls runs s as the queue's command.
//
//voyager:noalloc
func (q *cmdQueue) startSetCls(s *SetCls) {
	c := q.c
	c.setClsLines(s.Addr, s.Count, s.State)
	c.eng.Schedule(c.cycles(s.Count), q.finishFn)
}

// BlockRead reads [DramAddr, DramAddr+Len) from aP DRAM into aSRAM at
// SramOff using the block aP-bus-operation unit. Len is limited to one
// aligned page.
type BlockRead struct {
	Base
	DramAddr uint32
	SramOff  uint32
	Len      int
}

func (b *BlockRead) exec(c *Ctrl, done func()) {
	checkBlock(c, b.DramAddr, b.Len)
	c.stats.BlockReads++
	// The next line's bus read is issued while the previous line crosses
	// the IBus into the aSRAM, keeping the bus the pacing resource.
	moves, lastIssued := 0, false
	finish := func() {
		if lastIssued && moves == 0 {
			done()
		}
	}
	var issue func(off int)
	issue = func(off int) {
		if off >= b.Len {
			lastIssued = true
			finish()
			return
		}
		tx := &bus.Transaction{Kind: bus.ReadLine, Addr: b.DramAddr + uint32(off),
			Data: make([]byte, bus.LineSize)}
		c.busPort.IssueBusOp(tx, func() {
			moves++
			c.ibusMove(bus.LineSize, func() {
				c.aSRAM.Write(b.SramOff+uint32(off), tx.Data)
				moves--
				finish()
			})
			issue(off + bus.LineSize)
		})
	}
	issue(0)
}

// BlockTx packetizes [SramOff, SramOff+Len) of Buf into remote-command
// packets that write destination DRAM at DestAddr, optionally updating the
// destination's clsSRAM per written line (WithCls — approach 5), and
// optionally delivering a notification message after the last data packet.
type BlockTx struct {
	Base
	Buf      *sram.SRAM
	SramOff  uint32
	Len      int
	DestNode int
	DestAddr uint32
	Priority arctic.Priority

	WithCls  bool
	ClsState sram.LineState

	NotifyQ       uint16 // logical queue for the completion notification
	NotifyPayload []byte // nil = no notification

	// TraceParent links every packet this transfer launches (data chunks and
	// the notification) to the message that caused the transfer (e.g. the
	// DMA request the firmware handled); 0 when untraced.
	TraceParent uint64
}

func (b *BlockTx) exec(c *Ctrl, done func()) {
	checkBlock(c, b.DestAddr, b.Len)
	c.stats.BlockTxs++
	var step func(off int)
	step = func(off int) {
		if off >= b.Len {
			if b.NotifyPayload != nil {
				// The notification travels on the same priority lane as the
				// data so FIFO delivery guarantees it arrives after the last
				// data packet has been written.
				f := &txrx.Frame{Kind: txrx.Cmd, SrcNode: uint16(c.myNode),
					Op: txrx.CmdNotify, Aux: b.NotifyQ,
					Payload: append([]byte(nil), b.NotifyPayload...),
					Trace:   sim.MsgTag{ID: c.eng.NewMsgID(), Parent: b.TraceParent}}
				c.eng.MsgInstant(c.myNode, "ctrl", "msg-send", f.Trace)
				c.emit(f, b.DestNode, b.Priority, done)
				return
			}
			done()
			return
		}
		n := b.Len - off
		if n > BlockTxChunk {
			n = BlockTxChunk
		}
		start := c.eng.Now()
		c.ibusMove(n, func() {
			op := txrx.CmdWriteDram
			if b.WithCls {
				op = txrx.CmdWriteDramCls
			}
			f := &txrx.Frame{Kind: txrx.Cmd, SrcNode: uint16(c.myNode), Op: op,
				Addr: b.DestAddr + uint32(off), Aux: uint16(b.ClsState),
				Payload: b.Buf.Append(nil, b.SramOff+uint32(off), n),
				Trace:   sim.MsgTag{ID: c.eng.NewMsgID(), Parent: b.TraceParent}}
			c.eng.MsgInstant(c.myNode, "ctrl", "msg-send", f.Trace)
			c.emit(f, b.DestNode, b.Priority, func() {
				// Pace to the link rate so the unit does not flood the
				// injection queue beyond what the wire can carry. The IBus
				// and TxU work above is pipelined under the previous
				// packet's wire time, so only the residual is waited here.
				wait := c.paceTime(txrx.CmdHeaderBytes+n) - (c.eng.Now() - start)
				if wait < 0 {
					wait = 0
				}
				c.eng.Schedule(wait, func() { step(off + n) })
			})
		})
	}
	step(0)
}

func checkBlock(c *Ctrl, addr uint32, n int) {
	if n <= 0 || n > PageBytes {
		panic(fmt.Sprintf("ctrl: node %d: block op of %d bytes exceeds page", c.myNode, n))
	}
	if addr%bus.LineSize != 0 || n%bus.LineSize != 0 {
		panic(fmt.Sprintf("ctrl: node %d: unaligned block op %#x+%d", c.myNode, addr, n))
	}
	if addr/PageBytes != (addr+uint32(n)-1)/PageBytes {
		panic(fmt.Sprintf("ctrl: node %d: block op %#x+%d crosses a page", c.myNode, addr, n))
	}
}

// paceTime returns wire serialization time for size bytes at the link rate.
func (c *Ctrl) paceTime(size int) sim.Time {
	flits := (size + arctic.FlitBytes - 1) / arctic.FlitBytes
	return sim.Time(flits) * c.paceFlit
}

// cmdQueue is one ordered local command queue. It runs one foreground
// command at a time, so the running command and its progress are staged on
// the queue (done, msg, bop) and each step's continuation is one of the
// queue's method values instead of a closure per step. A queue is built,
// and its continuations bound, on its first command, so a node whose sP
// never issues one carries none. A block command is handed to its unit,
// and the queue moves on.
type cmdQueue struct {
	c     *Ctrl
	items []Command
	busy  bool

	done func()   // the running foreground command's Done
	msg  *SendMsg // the running SendMsg
	bop  *BusOp   // the running BusOp

	finishFn, tagOnFn, emitFn, sentFn, busDoneFn, busMovedFn func()
}

// IssueCommand enqueues cmd on local command queue q (0 or 1).
func (c *Ctrl) IssueCommand(q int, cmd Command) {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("ctrl: bad command queue %d", q))
	}
	c.stats.LocalCmds++
	cq := c.local[q]
	if cq == nil {
		cq = newCmdQueue(c)
		c.local[q] = cq
	}
	cq.items = append(cq.items, cmd)
	cq.kick()
}

func newCmdQueue(c *Ctrl) *cmdQueue {
	q := &cmdQueue{c: c}
	q.finishFn, q.tagOnFn, q.emitFn = q.finish, q.tagOn, q.emitMsg
	q.sentFn, q.busDoneFn, q.busMovedFn = q.sent, q.busDone, q.busMoved
	return q
}

// kick starts the queue's next command if it is idle.
//
//voyager:noalloc
func (q *cmdQueue) kick() {
	if q.busy || len(q.items) == 0 {
		return
	}
	cmd := q.items[0]
	q.items = sim.PopFront(q.items)
	q.busy = true
	switch cmd := cmd.(type) {
	case *SendMsg:
		q.done = cmd.Done
		q.startSend(cmd)
	case *BusOp:
		q.done = cmd.Done
		q.startBusOp(cmd)
	case *SetCls:
		q.done = cmd.Done
		q.startSetCls(cmd)
	default:
		// A block command runs on its unit, whose transfer steps are
		// closures of their own.
		q.handOver(cmd) //voyager:alloc-ok(a block transfer keeps its closures: it is not per-message work)
	}
}

// finish retires the running foreground command: the queue frees, the
// command's Done runs, and the next command starts.
//
//voyager:noalloc
func (q *cmdQueue) finish() {
	done := q.done
	q.done, q.msg, q.bop = nil, nil, nil
	q.busy = false
	if done != nil {
		done()
	}
	q.kick()
}

// blockCmd is a command that runs on a block unit.
type blockCmd interface {
	exec(c *Ctrl, done func())
}

// handOver gives block command cmd to its functional unit. The queue
// resumes at hand-over; the command's Done fires at true completion.
func (q *cmdQueue) handOver(cmd Command) {
	c := q.c
	unit := c.blockRead
	if _, ok := cmd.(*BlockTx); ok {
		unit = c.blockTx
	}
	unit.acquire(func(finished func()) {
		q.busy = false
		q.kick()
		cmd.(blockCmd).exec(c, func() {
			finished()
			if d := cmd.command().Done; d != nil {
				d()
			}
		})
	})
}

// blockUnit serializes use of one block-operation functional unit.
type blockUnit struct {
	busy    bool
	waiters []func(finished func())
}

func (u *blockUnit) acquire(start func(finished func())) {
	if u.busy {
		u.waiters = append(u.waiters, start)
		return
	}
	u.busy = true
	start(u.finish)
}

func (u *blockUnit) finish() {
	u.busy = false
	if len(u.waiters) > 0 {
		next := u.waiters[0]
		u.waiters = sim.PopFront(u.waiters)
		u.busy = true
		next(u.finish)
	}
}
