package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"startvoyager/internal/arctic"
	"startvoyager/internal/bus"
	"startvoyager/internal/niu/ctrl"
	"startvoyager/internal/node"
	"startvoyager/internal/sim"
)

// Channels are user-allocated protected message endpoints: each gets its own
// hardware transmit and receive queue, its own aSRAM buffers, translation
// entries, and a destination permission mask. Different communication
// abstractions (and different jobs) co-exist on the NIU without being able
// to interfere — the protection story of the paper's core NIU layer. A send
// to a destination outside the permission mask shuts the queue down and
// interrupts the firmware; the offender gets an error, everyone else keeps
// running.

// ErrChannelShutdown reports a send on a queue disabled by protection.
var ErrChannelShutdown = errors.New("core: channel shut down by protection")

// ChannelEntries is each channel queue's depth.
const ChannelEntries = 8

// channel queue pools (hardware queues not used by the default layout; rx 11
// and 12 now belong to the reliable-delivery queues).
const (
	chanFirstTxQ = 2
	chanLastTxQ  = 7
	chanFirstRxQ = 3
	chanLastRxQ  = 10
)

// chanLogical returns the network-visible logical queue id of channel cid
// (identical on every node, so channels pair by id).
func chanLogical(cid int) uint16 { return 0x0200 + uint16(cid) }

// Channel is one protected endpoint.
type Channel struct {
	api      *API
	cid      int
	txq, rxq int
	bufTx    uint32 // aSRAM offsets
	bufRx    uint32
	rxCons   uint32
	txProd   uint32
	// virts is keyed lookups only — never ranged — so its iteration order
	// cannot leak into scheduling (checked by the nomaporder analyzer).
	virts map[int]int // destination node -> translation index
}

// OpenChannel allocates a protected channel with id cid (pair channels by
// opening the same id on the peer nodes). The channel may only send to the
// nodes in allowedDests; anything else trips the protection hardware.
func (a *API) OpenChannel(cid int, allowedDests []int) *Channel {
	if a.nextTxQ == 0 {
		a.nextTxQ, a.nextRxQ = chanFirstTxQ, chanFirstRxQ
		a.sramArena = uint32(a.n.ASram.Size()) - uint32(node.DmaStagingLen) - 32<<10
	}
	if a.nextTxQ > chanLastTxQ || a.nextRxQ > chanLastRxQ {
		panic("core: out of channel hardware queues")
	}
	ch := &Channel{api: a, cid: cid, txq: a.nextTxQ, rxq: a.nextRxQ,
		virts: make(map[int]int)}
	a.nextTxQ++
	a.nextRxQ++

	ch.bufTx = a.sramArena
	a.sramArena += uint32(node.BasicSlotBytes * ChannelEntries)
	ch.bufRx = a.sramArena
	a.sramArena += uint32(node.BasicSlotBytes * ChannelEntries)
	shadow := a.sramArena
	a.sramArena += 16

	var mask uint64
	for _, d := range allowedDests {
		mask |= 1 << (uint(d) % 64)
	}
	a.n.Ctrl.ConfigureTx(ch.txq, ctrl.TxConfig{
		Buf: a.n.ASram, Base: ch.bufTx, EntryBytes: node.BasicSlotBytes,
		Entries: ChannelEntries, ShadowBase: shadow,
		Translate: true, AndMask: 0xFFFF,
		AllowedDests: mask, Enabled: true,
	})
	a.n.Ctrl.ConfigureRx(ch.rxq, ctrl.RxConfig{
		Buf: a.n.ASram, Base: ch.bufRx, EntryBytes: node.BasicSlotBytes,
		Entries: ChannelEntries, ShadowBase: shadow + 8,
		Logical: chanLogical(cid), Full: ctrl.Hold, Enabled: true,
	})
	return ch
}

// virtFor returns (allocating if needed) the translation index routing to
// dest's copy of this channel.
func (ch *Channel) virtFor(dest int) int {
	if v, ok := ch.virts[dest]; ok {
		return v
	}
	a := ch.api
	if a.nextVirt == 0 {
		a.nextVirt = TransUser
	}
	if a.nextVirt > 255 {
		panic("core: out of translation entries for channels")
	}
	v := a.nextVirt
	a.nextVirt++
	a.n.Ctrl.WriteTransEntry(v, ctrl.TransEntry{
		PhysNode: uint16(dest), LogicalQ: chanLogical(ch.cid),
		Priority: arctic.Low, Valid: true,
	})
	ch.virts[dest] = v
	return v
}

// Send delivers payload to dest's paired channel. It returns
// ErrChannelShutdown if this channel's transmit queue has been disabled by
// a protection violation (including one this call provokes).
func (ch *Channel) Send(p *sim.Proc, dest int, payload []byte) error {
	if len(payload) > MaxBasicPayload {
		panic(fmt.Sprintf("core: payload %d exceeds Basic limit", len(payload)))
	}
	a := ch.api
	defer a.busy("Channel.Send")()
	virt := ch.virtFor(dest)

	// Wait for queue space, aborting if protection trips.
	if ch.waitTx(p, ChannelEntries) {
		return ErrChannelShutdown
	}
	slot := make([]byte, ctrl.SlotHeaderBytes+len(payload))
	binary.BigEndian.PutUint16(slot[0:], uint16(virt))
	slot[3] = byte(len(payload))
	copy(slot[8:], payload)
	base := node.SramBase + ctrl.SlotOffset(ch.bufTx, node.BasicSlotBytes,
		ChannelEntries, ch.txProd)
	a.n.Cache.Store(p, base, slot)
	for off := uint32(0); off < uint32(len(slot)); off += bus.LineSize {
		a.n.Cache.Flush(p, base+off)
	}
	ch.txProd++
	a.ptrStore(p, ch.txq, false, ch.txProd)
	// Let the launch (and any violation) resolve before reporting success:
	// poll until the consumer catches up or the queue is shut down.
	if ch.waitTx(p, 1) {
		return ErrChannelShutdown
	}
	return nil
}

// waitTx polls the transmit consumer pointer until fewer than lim messages
// are outstanding, and reports true instead if protection shuts the queue
// down first.
//
//voyager:noalloc
func (ch *Channel) waitTx(p *sim.Proc, lim uint32) (shutdown bool) {
	a := ch.api
	s := a.spinGet(spinTx, ptrAddr(ch.txq, false), &ch.txProd, "", noDeadline)
	s.lim, s.shutQ = lim, ch.txq
	shutdown = s.wait(p) == spinShutdown
	s.release()
	return shutdown
}

// TryRecv polls this channel once.
func (ch *Channel) TryRecv(p *sim.Proc) (src int, payload []byte, ok bool) {
	a := ch.api
	defer a.busy("Channel.TryRecv")()
	producer, _ := a.ptrLoad(p, ch.rxq, true)
	if producer == ch.rxCons {
		return 0, nil, false
	}
	src, payload = ch.readSlot(p)
	return src, payload, true
}

// readSlot consumes the message at the head of the receive queue.
func (ch *Channel) readSlot(p *sim.Proc) (src int, payload []byte) {
	a := ch.api
	base := node.SramBase + ctrl.SlotOffset(ch.bufRx, node.BasicSlotBytes,
		ChannelEntries, ch.rxCons)
	var hdr [8]byte
	a.n.Cache.Flush(p, base)
	a.n.Cache.Load(p, base, hdr[:])
	n := int(binary.BigEndian.Uint16(hdr[4:]))
	payload = make([]byte, n)
	if n > 0 {
		for off := uint32(bus.LineSize); off < uint32(8+n); off += bus.LineSize {
			a.n.Cache.Flush(p, base+off)
		}
		a.n.Cache.Load(p, base+8, payload)
	}
	ch.rxCons++
	a.ptrStore(p, ch.rxq, true, ch.rxCons)
	return int(binary.BigEndian.Uint16(hdr[0:])), payload
}

// Recv blocks until a message arrives on this channel.
func (ch *Channel) Recv(p *sim.Proc) (src int, payload []byte) {
	src, payload, _ = ch.recvT(p, noDeadline)
	return src, payload
}

// RecvTimeout is Recv with a bound: after timeout of simulated time with no
// message it returns a *TimeoutError.
func (ch *Channel) RecvTimeout(p *sim.Proc, timeout sim.Time) (src int, payload []byte, err error) {
	return ch.recvT(p, timeout)
}

func (ch *Channel) recvT(p *sim.Proc, timeout sim.Time) (src int, payload []byte, err error) {
	a := ch.api
	s := a.spinGet(spinRx, ptrAddr(ch.rxq, true), &ch.rxCons, "Channel.TryRecv", timeout)
	hit := s.wait(p) == spinHit
	if hit {
		src, payload = ch.readSlot(p)
	}
	s.release()
	if !hit {
		return 0, nil, &TimeoutError{Op: "Channel.Recv", Timeout: timeout}
	}
	return src, payload, nil
}

// Shutdown reports whether protection has disabled this channel.
func (ch *Channel) Shutdown() bool { return ch.api.n.Ctrl.TxShutdown(ch.txq) }

// Reenable clears a protection shutdown (the privileged recovery an OS or
// firmware performs after handling the violation). The offending message is
// still at the head of the queue and will be retried.
func (ch *Channel) Reenable() { ch.api.n.Ctrl.SetTxEnabled(ch.txq, true) }
