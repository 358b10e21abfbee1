package firmware

import (
	"encoding/binary"
	"fmt"
	"slices"

	"startvoyager/internal/arctic"
	"startvoyager/internal/niu/ctrl"
	"startvoyager/internal/niu/txrx"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// The R-Basic reliable-delivery service: Basic-message semantics that survive
// a lossy network. It is pure sP firmware in the paper's sense — no hardware
// changes, just three new service message types and two logical queues.
//
// Protocol (Go-Back-N, per directed (sender, receiver) pair):
//
//   - The aP submits a send as SvcRelSend to its own sP (node-local traffic,
//     outside the fault plane). The sP assigns the next sequence number for
//     the destination and transmits SvcRelData [seq, payload] on the Low
//     lane, keeping a copy in a bounded retransmit buffer (at most
//     RelWindow in flight; excess sends queue behind them).
//   - The receiving sP accepts only seq == recvNext: in-order messages are
//     delivered to the local RelLogicalQ, older duplicates are suppressed,
//     and out-of-order futures are dropped (a Go-Back-N retransmit will
//     bring them back in order). Every receipt triggers a cumulative ACK
//     [recvNext] on the High lane so ACKs bypass congested data traffic.
//   - The sender retires entries covered by a cumulative ACK and reports
//     each as a RelOK status on the local RelStatusLogicalQ. If the ACK
//     timer expires, every in-flight entry is retransmitted and the timeout
//     doubles (capped at RelBackoffCap). After RelMaxRetries consecutive
//     timeouts the peer is declared unreachable: all queued sends fail with
//     RelUnreachable and future sends fail immediately.

// RelMaxPayload bounds a reliable message's payload so every encoding —
// SvcRelSend (6-byte header), SvcRelData (4-byte), local delivery (2-byte
// origin prefix) — fits a Basic frame.
const RelMaxPayload = 80

// Reliable-send completion codes (RelStatusLogicalQ payload byte 4).
const (
	RelOK          byte = 0 // delivered and acknowledged exactly once
	RelUnreachable byte = 1 // retry budget exhausted; peer presumed dead
)

// R-Basic protocol parameters.
const (
	RelTimeout    = 30 * sim.Microsecond  // initial retransmit timeout
	RelMaxRetries = 6                     // consecutive timeouts before declaring the peer dead
	RelBackoffCap = 500 * sim.Microsecond // upper bound on the backed-off timeout
	RelWindow     = 8                     // retransmit-buffer entries per peer
)

// RelSendBound returns the worst-case sim time between submitting a
// reliable send and its status arriving: the full backoff ladder
// (RelMaxRetries + 1 timer expiries, each min(2^i*RelTimeout,
// RelBackoffCap)) plus slack for the final status to cross the node-local
// path. Callers polling for a status can bound their wait with this and know
// a verdict must have landed.
func RelSendBound() sim.Time {
	var total sim.Time
	rto := RelTimeout
	for i := 0; i <= RelMaxRetries; i++ {
		total += rto
		rto = min(2*rto, RelBackoffCap)
	}
	return total + 4*RelTimeout
}

// RelStats counts R-Basic activity on one node.
type RelStats struct {
	Sends         uint64 // SvcRelSend submissions accepted
	Delivered     uint64 // in-order payloads handed to the local aP
	Retransmits   uint64 // data frames re-sent on timeout
	DupSuppressed uint64 // duplicate arrivals discarded (already delivered)
	OooDropped    uint64 // out-of-order futures discarded
	Acks          uint64 // cumulative ACK frames received
	Failures      uint64 // sends failed with RelUnreachable
}

// relEntry is one send in the retransmit buffer.
type relEntry struct {
	seq     uint32
	tag     uint32
	payload []byte

	// Causal trace identity: one message id for the logical send, reused
	// across every retransmission with a bumped attempt counter, parented to
	// the aP's SvcRelSend submission.
	msg     uint64
	parent  uint64
	attempt uint32
}

// relPeer is the per-(this node, remote node) protocol state.
type relPeer struct {
	node int

	// Sender side.
	nextSeq  uint32
	inflight []*relEntry // transmitted, awaiting ACK (≤ Window)
	pending  []*relEntry // accepted but waiting for window space
	rto      sim.Time
	retries  int
	timerGen uint64 // bumping this invalidates the armed timer
	failed   bool

	// Receiver side.
	recvNext uint32
}

// Rel is one node's R-Basic service instance. Peer state materializes on the
// first exchange with that peer, and the service holds only those peers:
// protocol state is per directed pair, so anything sized by the node count
// would cost O(nodes²) machine-wide, when real traffic touches a tiny
// fraction of the pairs.
type Rel struct {
	e     *Engine
	nodes int        // machine size, the bound on a send's destination
	peers []*relPeer // the peers that carried traffic, by node; see peer()

	stats       RelStats
	backoffHist *stats.Histogram // rto at each expiry (ns)
}

// NewRel builds and registers the R-Basic service on e for a machine of
// numNodes nodes.
func NewRel(e *Engine, numNodes int) *Rel {
	if numNodes <= 0 {
		panic("firmware: NewRel needs at least one node")
	}
	r := &Rel{
		e:           e,
		nodes:       numNodes,
		backoffHist: stats.NewHistogram(stats.ExpBounds(int64(RelTimeout), 2, 8)...),
	}
	e.Register(SvcRelSend, r.onSend)
	e.Register(SvcRelData, r.onData)
	e.Register(SvcRelAck, r.onAck)
	return r
}

// peer returns node i's protocol state, materializing it on first use.
func (r *Rel) peer(i int) *relPeer {
	at, found := slices.BinarySearchFunc(r.peers, i, func(p *relPeer, i int) int { return p.node - i })
	if !found {
		r.peers = slices.Insert(r.peers, at, &relPeer{node: i, rto: RelTimeout})
	}
	return r.peers[at]
}

// Stats returns a snapshot of counters.
func (r *Rel) Stats() RelStats { return r.stats }

// Quiesced reports whether every peer's sender state has drained: nothing
// awaiting an ACK, nothing queued behind the window. With the event queue
// drained this must hold — a non-empty buffer with no armed timer means a
// send was silently abandoned, which is the quiescence oracle's target. The
// error names the lowest-numbered peer that has not drained.
func (r *Rel) Quiesced() error {
	for _, peer := range r.peers {
		if len(peer.inflight) > 0 || len(peer.pending) > 0 {
			return fmt.Errorf("firmware: node %d rel peer %d not quiesced: %d in flight, %d pending",
				r.e.node, peer.node, len(peer.inflight), len(peer.pending))
		}
	}
	return nil
}

// relMetrics is the service's metric table.
var relMetrics = stats.NewMetrics(
	stats.GaugeOf("rel_sends", func(r *Rel) int64 { return int64(r.stats.Sends) }),
	stats.GaugeOf("rel_delivered", func(r *Rel) int64 { return int64(r.stats.Delivered) }),
	stats.GaugeOf("retransmits", func(r *Rel) int64 { return int64(r.stats.Retransmits) }),
	stats.GaugeOf("dup_suppressed", func(r *Rel) int64 { return int64(r.stats.DupSuppressed) }),
	stats.GaugeOf("ooo_dropped", func(r *Rel) int64 { return int64(r.stats.OooDropped) }),
	stats.GaugeOf("rel_acks", func(r *Rel) int64 { return int64(r.stats.Acks) }),
	stats.GaugeOf("rel_failures", func(r *Rel) int64 { return int64(r.stats.Failures) }),
	stats.HistogramOf("backoff_ns", func(r *Rel) *stats.Histogram { return r.backoffHist }),
)

// RegisterMetrics registers the service's counters under reg.
func (r *Rel) RegisterMetrics(reg *stats.Registry) { relMetrics.Register(reg, r) }

// onSend handles SvcRelSend from the local aP: dst(2) tag(4) payload.
func (r *Rel) onSend(p *sim.Proc, src uint16, body []byte) {
	if len(body) < 6 {
		panic(fmt.Sprintf("firmware: node %d: short RelSend body (%d bytes)", r.e.node, len(body)))
	}
	dst := int(binary.BigEndian.Uint16(body[0:]))
	tag := binary.BigEndian.Uint32(body[2:])
	payload := append([]byte(nil), body[6:]...)
	if dst < 0 || dst >= r.nodes {
		panic(fmt.Sprintf("firmware: node %d: RelSend to bad node %d", r.e.node, dst))
	}
	r.stats.Sends++
	if dst == r.e.node {
		// Node-local reliable send: the loopback path cannot lose data.
		r.stats.Delivered++
		r.deliverLocal(p, uint16(r.e.node), payload, r.e.curMsg.ID)
		r.status(p, tag, RelOK, r.e.curMsg.ID)
		return
	}
	peer := r.peer(dst)
	if peer.failed {
		r.stats.Failures++
		r.status(p, tag, RelUnreachable, r.e.curMsg.ID)
		return
	}
	ent := &relEntry{seq: peer.nextSeq, tag: tag, payload: payload,
		msg: r.e.sim.NewMsgID(), parent: r.e.curMsg.ID}
	r.e.sim.MsgInstant(r.e.node, "fw", "msg-send", sim.MsgTag{ID: ent.msg, Parent: ent.parent},
		sim.Int("dst", dst))
	peer.pending = append(peer.pending, ent)
	peer.nextSeq++
	r.fillWindow(p, peer)
}

// onData handles SvcRelData from a remote sender: seq(4) payload.
func (r *Rel) onData(p *sim.Proc, src uint16, body []byte) {
	if len(body) < 4 {
		panic(fmt.Sprintf("firmware: node %d: short RelData body (%d bytes)", r.e.node, len(body)))
	}
	seq := binary.BigEndian.Uint32(body[0:])
	peer := r.peer(int(src))
	switch d := int32(seq - peer.recvNext); {
	case d == 0:
		peer.recvNext++
		r.stats.Delivered++
		// Handing the payload to the aP costs sP data movement.
		r.e.Occupy(p, sim.Time(len(body)-4)*r.e.costs.PerByte)
		r.deliverLocal(p, src, body[4:], r.e.curMsg.ID)
	case d < 0:
		// Already delivered: a retransmit crossed our ACK. Re-ACK so the
		// sender can retire it.
		r.stats.DupSuppressed++
		if r.e.sim.Observed() {
			r.e.sim.Instant(r.e.node, "fw", "rel-dup",
				sim.Int("src", int(src)), sim.I64("seq", int64(seq)))
		}
	default:
		// A gap means an earlier frame was lost; drop the future and let
		// Go-Back-N retransmit the whole window in order.
		r.stats.OooDropped++
	}
	// Cumulative ACK on the High lane (every arrival, including duplicates:
	// the dup means our previous ACK may have been lost).
	var ack [4]byte
	binary.BigEndian.PutUint32(ack[:], peer.recvNext)
	r.e.SendSvc(p, int(src), SvcRelAck, ack[:], arctic.High, nil)
}

// onAck handles a cumulative ACK from the receiver: recvNext(4).
func (r *Rel) onAck(p *sim.Proc, src uint16, body []byte) {
	if len(body) < 4 {
		panic(fmt.Sprintf("firmware: node %d: short RelAck body (%d bytes)", r.e.node, len(body)))
	}
	ackNext := binary.BigEndian.Uint32(body[0:])
	peer := r.peer(int(src))
	r.stats.Acks++
	progressed := false
	for len(peer.inflight) > 0 && int32(peer.inflight[0].seq-ackNext) < 0 {
		ent := peer.inflight[0]
		peer.inflight = peer.inflight[1:]
		progressed = true
		r.status(p, ent.tag, RelOK, ent.msg)
	}
	if !progressed {
		return
	}
	// Forward progress: the path works, so reset the backoff ladder.
	peer.retries = 0
	peer.rto = RelTimeout
	r.fillWindow(p, peer)
	if len(peer.inflight) == 0 {
		peer.timerGen++ // disarm; nothing awaits an ACK
	} else {
		r.armTimer(peer)
	}
}

// fillWindow transmits pending entries while window space remains, then
// (re)arms the ACK timer if anything is in flight.
func (r *Rel) fillWindow(p *sim.Proc, peer *relPeer) {
	sent := false
	for len(peer.inflight) < RelWindow && len(peer.pending) > 0 {
		ent := peer.pending[0]
		peer.pending = peer.pending[1:]
		peer.inflight = append(peer.inflight, ent)
		r.transmit(p, peer, ent)
		sent = true
	}
	if sent && len(peer.inflight) > 0 {
		r.armTimer(peer)
	}
}

// transmit sends one data frame on the Low lane. Every attempt reuses the
// entry's message id with a bumped attempt counter, so the path analyzer sees
// one causal chain per logical send and can charge the retransmit penalty.
func (r *Rel) transmit(p *sim.Proc, peer *relPeer, ent *relEntry) {
	body := make([]byte, 4+len(ent.payload))
	binary.BigEndian.PutUint32(body[0:], ent.seq)
	copy(body[4:], ent.payload)
	r.e.Occupy(p, sim.Time(len(ent.payload))*r.e.costs.PerByte)
	if ent.msg != 0 {
		// Attempts are counted on a traced send's identity; an untraced
		// send carries the zero tag, which CTRL's tag rings never store.
		ent.attempt++
	}
	r.e.SendSvcTagged(p, peer.node, SvcRelData, body, arctic.Low,
		sim.MsgTag{ID: ent.msg, Attempt: ent.attempt, Parent: ent.parent}, nil)
}

// armTimer schedules the ACK timeout, invalidating any earlier timer.
func (r *Rel) armTimer(peer *relPeer) {
	peer.timerGen++
	gen := peer.timerGen
	r.e.sim.Schedule(peer.rto, func() {
		if gen != peer.timerGen || len(peer.inflight) == 0 {
			return // superseded by an ACK or a newer transmission
		}
		r.e.Go("rel-rto", func(p *sim.Proc) { r.onTimeout(p, peer, gen) })
	})
}

// onTimeout retransmits the whole in-flight window (Go-Back-N) with doubled
// timeout, or gives up on the peer once the retry budget is spent.
func (r *Rel) onTimeout(p *sim.Proc, peer *relPeer, gen uint64) {
	if gen != peer.timerGen || len(peer.inflight) == 0 || peer.failed {
		return
	}
	peer.retries++
	if peer.retries > RelMaxRetries {
		r.failPeer(p, peer)
		return
	}
	r.backoffHist.ObserveTime(peer.rto)
	if r.e.sim.Observed() {
		r.e.sim.Instant(r.e.node, "fw", "rel-rto",
			sim.Int("peer", peer.node), sim.Int("retry", peer.retries),
			sim.I64("rto_ns", int64(peer.rto)))
	}
	r.e.Occupy(p, r.e.costs.Dispatch)
	for _, ent := range peer.inflight {
		r.stats.Retransmits++
		r.transmit(p, peer, ent)
	}
	peer.rto = min(2*peer.rto, RelBackoffCap)
	r.armTimer(peer)
}

// failPeer declares the peer unreachable and fails every queued send.
func (r *Rel) failPeer(p *sim.Proc, peer *relPeer) {
	peer.failed = true
	peer.timerGen++
	if r.e.sim.Observed() {
		r.e.sim.Instant(r.e.node, "fw", "rel-peer-dead", sim.Int("peer", peer.node))
	}
	for _, ent := range peer.inflight {
		r.stats.Failures++
		r.status(p, ent.tag, RelUnreachable, ent.msg)
	}
	for _, ent := range peer.pending {
		r.stats.Failures++
		r.status(p, ent.tag, RelUnreachable, ent.msg)
	}
	peer.inflight, peer.pending = nil, nil
}

// deliverLocal lands an in-order payload on the node's RelLogicalQ, prefixed
// with the true origin node (the frame's SrcNode is this node: the final hop
// is a node-local SendMsg). parent links the new local message to its cause
// (explicit because failPeer runs outside handler context, where curMsg is
// not valid).
func (r *Rel) deliverLocal(p *sim.Proc, origin uint16, payload []byte, parent uint64) {
	buf := make([]byte, 2+len(payload))
	binary.BigEndian.PutUint16(buf[0:], origin)
	copy(buf[2:], payload)
	r.e.IssueCommand(p, 0, &ctrl.SendMsg{
		Frame: &txrx.Frame{Kind: txrx.Data, LogicalQ: RelLogicalQ, Payload: buf,
			Trace: sim.MsgTag{Parent: parent}},
		Dest:     uint16(r.e.node),
		Priority: arctic.High,
	})
}

// status reports a send's outcome on the node's RelStatusLogicalQ:
// tag(4) code(1).
func (r *Rel) status(p *sim.Proc, tag uint32, code byte, parent uint64) {
	var buf [5]byte
	binary.BigEndian.PutUint32(buf[0:], tag)
	buf[4] = code
	r.e.IssueCommand(p, 0, &ctrl.SendMsg{
		Frame: &txrx.Frame{Kind: txrx.Data, LogicalQ: RelStatusLogicalQ, Payload: buf[:],
			Trace: sim.MsgTag{Parent: parent}},
		Dest:     uint16(r.e.node),
		Priority: arctic.High,
	})
}
