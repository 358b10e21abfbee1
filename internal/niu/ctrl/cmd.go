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
// the ordering contract the paper specifies.
type Command interface {
	exec(c *Ctrl, done func())
	// background commands release the queue at hand-over rather than at
	// completion.
	background() bool
	// completion callback, invoked when the command's effects are done.
	completion() func()
}

// Base carries the completion callback shared by all commands.
type Base struct {
	// Done, if non-nil, runs at command completion (the model's analogue of
	// a completion interrupt or flag write).
	Done func()
}

func (b Base) background() bool   { return false }
func (b Base) completion() func() { return b.Done }

// SendMsg launches a message directly from the command queue (the firmware
// transmit path: translation optional, protection trusted).
type SendMsg struct {
	Base
	Frame     *txrx.Frame // SrcNode is filled in by CTRL
	Dest      uint16      // physical node, or translation index when Translate
	Translate bool
	Priority  arctic.Priority
	// Optional TagOn data appended from SRAM.
	TagBuf *sram.SRAM
	TagOff uint32
	TagLen int
}

func (m *SendMsg) exec(c *Ctrl, done func()) {
	m.Frame.SrcNode = uint16(c.myNode)
	if !m.Frame.Trace.Traced() {
		// First entry into the system: allocate the trace id here (keeping
		// any Parent link the issuer pre-set). Frames that arrive already
		// tagged — reliable-delivery retransmissions — keep their identity
		// so every attempt links to one logical message.
		m.Frame.Trace.ID = c.eng.NewMsgID()
		c.eng.MsgInstant(c.myNode, "ctrl", "msg-send", m.Frame.Trace)
	}
	send := func(phys uint16, pri arctic.Priority) {
		// Move the payload across the IBus into the Tx FIFO, then format.
		c.ibusMove(len(m.Frame.Payload)+SlotHeaderBytes, func() {
			c.emit(m.Frame, int(phys), pri, func() {
				c.stats.TxMessages++
				c.stats.TxBytes += uint64(len(m.Frame.Payload))
				done()
			})
		})
	}
	withTag := func(cont func()) {
		if m.TagLen == 0 {
			cont()
			return
		}
		c.stats.TagOns++
		c.ibusMove(m.TagLen, func() {
			m.Frame.Payload = m.TagBuf.Append(m.Frame.Payload, m.TagOff, m.TagLen)
			cont()
		})
	}
	withTag(func() {
		if !m.Translate {
			send(m.Dest, m.Priority)
			return
		}
		idx := int(m.Dest) % c.transEntries
		c.ibusMove(8, func() {
			e := c.readTransEntry(idx)
			if !e.Valid {
				panic(fmt.Sprintf("ctrl: node %d: SendMsg through invalid translation %d",
					c.myNode, idx))
			}
			m.Frame.LogicalQ = e.LogicalQ
			send(e.PhysNode, e.Priority)
		})
	})
}

// BusOp issues a single operation on the aP memory bus through the aBIU.
// For reads, data lands in ToBuf at ToOff (or only in Tx.Data if ToBuf is
// nil); for writes, data is taken from FromBuf at FromOff (or from Tx.Data).
type BusOp struct {
	Base
	Tx      *bus.Transaction
	ToBuf   *sram.SRAM
	ToOff   uint32
	FromBuf *sram.SRAM
	FromOff uint32
}

func (b *BusOp) exec(c *Ctrl, done func()) {
	issue := func() {
		c.busPort.IssueBusOp(b.Tx, func() {
			if b.Tx.Kind.IsRead() && b.ToBuf != nil {
				c.ibusMove(len(b.Tx.Data), func() {
					b.ToBuf.Write(b.ToOff, b.Tx.Data)
					done()
				})
				return
			}
			done()
		})
	}
	if !b.Tx.Kind.IsRead() && b.FromBuf != nil {
		c.ibusMove(len(b.Tx.Data), func() {
			b.FromBuf.Read(b.FromOff, b.Tx.Data)
			issue()
		})
		return
	}
	issue()
}

// CopySram moves bytes between (or within) the SRAM banks over the IBus.
type CopySram struct {
	Base
	From    *sram.SRAM
	FromOff uint32
	To      *sram.SRAM
	ToOff   uint32
	Len     int
}

func (cp *CopySram) exec(c *Ctrl, done func()) {
	// The IBus sees the data twice (read port, write port), but the banks
	// are dual-ported; one pass of occupancy models the transfer.
	c.ibusMove(cp.Len, func() {
		tmp := make([]byte, cp.Len)
		cp.From.Read(cp.FromOff, tmp)
		cp.To.Write(cp.ToOff, tmp)
		done()
	})
}

// SetCls updates clsSRAM state for Count lines starting at the line
// containing Addr (an S-COMA address).
type SetCls struct {
	Base
	Addr  uint32
	Count int
	State sram.LineState
}

func (s *SetCls) exec(c *Ctrl, done func()) {
	c.setClsLines(s.Addr, s.Count, s.State)
	c.eng.Schedule(c.cycles(s.Count), done)
}

// Configure runs an arbitrary CTRL state update in command-queue order (the
// "system register write" path).
type Configure struct {
	Base
	Fn func(c *Ctrl)
}

func (cf *Configure) exec(c *Ctrl, done func()) {
	cf.Fn(c)
	c.eng.Schedule(c.cycles(1), done)
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

func (b *BlockRead) background() bool { return true }

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

func (b *BlockTx) background() bool { return true }

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

// cmdQueue is one ordered local command queue.
type cmdQueue struct {
	c     *Ctrl
	name  string
	items []Command
	busy  bool
}

func newCmdQueue(c *Ctrl, name string) *cmdQueue { return &cmdQueue{c: c, name: name} }

// IssueCommand enqueues cmd on local command queue q (0 or 1).
func (c *Ctrl) IssueCommand(q int, cmd Command) {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("ctrl: bad command queue %d", q))
	}
	c.stats.LocalCmds++
	cq := c.local[q]
	cq.items = append(cq.items, cmd)
	cq.kick()
}

func (q *cmdQueue) kick() {
	if q.busy || len(q.items) == 0 {
		return
	}
	cmd := q.items[0]
	q.items = q.items[1:]
	q.busy = true
	c := q.c
	if cmd.background() {
		// Hand the command to its functional unit; the queue resumes at
		// hand-over, the Done callback fires at true completion.
		unit := c.blockRead
		if _, ok := cmd.(*BlockTx); ok {
			unit = c.blockTx
		}
		unit.acquire(func(finished func()) {
			q.busy = false
			q.kick()
			cmd.exec(c, func() {
				finished()
				if d := cmd.completion(); d != nil {
					d()
				}
			})
		})
		return
	}
	cmd.exec(c, func() {
		q.busy = false
		if d := cmd.completion(); d != nil {
			d()
		}
		q.kick()
	})
}

// blockUnit serializes use of one block-operation functional unit.
type blockUnit struct {
	c       *Ctrl
	name    string
	busy    bool
	waiters []func(finished func())
}

func newBlockUnit(c *Ctrl, name string) *blockUnit { return &blockUnit{c: c, name: name} }

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
		u.waiters = u.waiters[1:]
		u.busy = true
		next(u.finish)
	}
}
