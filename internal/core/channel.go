package core

import (
	"errors"

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

// Channel is one protected endpoint: a transmit and a receive queue that
// the library drives through its slot path, like the default Basic queues.
type Channel struct {
	api    *API
	cid    int
	tx, rx slotQ
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
	ch := &Channel{api: a, cid: cid, virts: make(map[int]int),
		tx: slotQ{a.nextTxQ, a.sramArena, ChannelEntries},
		rx: slotQ{a.nextRxQ, a.sramArena + node.BasicSlotBytes*ChannelEntries, ChannelEntries}}
	a.nextTxQ++
	a.nextRxQ++
	a.sramArena += 2 * node.BasicSlotBytes * ChannelEntries
	shadow := a.sramArena
	a.sramArena += 16

	var mask uint64
	for _, d := range allowedDests {
		mask |= 1 << (uint(d) % 64)
	}
	a.n.Ctrl.ConfigureTx(ch.tx.q, ctrl.TxConfig{
		Buf: a.n.ASram, Base: ch.tx.buf, EntryBytes: node.BasicSlotBytes,
		Entries: ChannelEntries, ShadowBase: shadow,
		Translate: true, AndMask: 0xFFFF,
		AllowedDests: mask, Enabled: true,
	})
	a.n.Ctrl.ConfigureRx(ch.rx.q, ctrl.RxConfig{
		Buf: a.n.ASram, Base: ch.rx.buf, EntryBytes: node.BasicSlotBytes,
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
	a.MapVirtualDest(v, dest, chanLogical(ch.cid))
	ch.virts[dest] = v
	return v
}

// Send delivers payload to dest's paired channel. It returns
// ErrChannelShutdown if this channel's transmit queue has been disabled by
// a protection violation (including one this call provokes).
func (ch *Channel) Send(p *sim.Proc, dest int, payload []byte) error {
	a := ch.api
	defer a.busy(p, "Channel.Send")()
	// Let the launch (and any violation) resolve before reporting success:
	// after the send, poll until the consumer catches up or the queue is
	// shut down.
	if a.sendSlot(p, "Channel.Send", ch.tx, ch.virtFor(dest), 0, payload, 0, 0, true) ||
		a.waitTx(p, ch.tx.q, 1, true) {
		return ErrChannelShutdown
	}
	return nil
}

// TryRecv polls this channel once.
func (ch *Channel) TryRecv(p *sim.Proc) (src int, payload []byte, ok bool) {
	return ch.api.tryRecvSlot(p, "Channel.TryRecv", ch.rx)
}

// Recv blocks until a message arrives on this channel.
func (ch *Channel) Recv(p *sim.Proc) (src int, payload []byte) {
	src, payload, _ = ch.RecvTimeout(p, noDeadline)
	return src, payload
}

// RecvTimeout is Recv with a bound: after timeout of simulated time with no
// message it returns a *TimeoutError.
func (ch *Channel) RecvTimeout(p *sim.Proc, timeout sim.Time) (src int, payload []byte, err error) {
	return ch.api.recvSlotT(p, "Channel.Recv", "Channel.TryRecv", ch.rx, timeout)
}

// Shutdown reports whether protection has disabled this channel.
func (ch *Channel) Shutdown() bool { return ch.api.n.Ctrl.TxShutdown(ch.tx.q) }

// Reenable clears a protection shutdown (the privileged recovery an OS or
// firmware performs after handling the violation). The offending message is
// still at the head of the queue and will be retried.
func (ch *Channel) Reenable() { ch.api.n.Ctrl.SetTxEnabled(ch.tx.q, true) }
