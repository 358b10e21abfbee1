package core

import (
	"encoding/binary"
	"fmt"

	"startvoyager/internal/firmware"
	"startvoyager/internal/node"
	"startvoyager/internal/sim"
)

// R-Basic: Basic-message semantics over a lossy network. SendReliable hands
// the payload to the local sP's reliable-delivery service (sequence numbers,
// ACKs, bounded-retry retransmission — see internal/firmware/rel.go) and
// blocks until the service reports the send delivered or the peer
// unreachable; either way the call returns within Machine.RelBound() of
// simulated time. RecvReliable reads in-order, exactly-once payloads the
// local service has accepted.

// MaxReliablePayload is the largest reliable-message payload.
const MaxReliablePayload = firmware.RelMaxPayload

// DeliveryError reports a reliable send whose peer was declared unreachable
// after the full retry budget.
type DeliveryError struct {
	Dest int // the peer node
}

func (e *DeliveryError) Error() string {
	return fmt.Sprintf("core: node %d unreachable (reliable-send retry budget exhausted)", e.Dest)
}

// relStatus is one decoded completion from the RelStatusLogicalQ.
type relStatus struct {
	tag  uint32
	code byte
}

// SendReliable sends payload to node dest with exactly-once delivery,
// blocking until the outcome is known. It returns nil on acknowledged
// delivery and a *DeliveryError if the retry budget was exhausted (dead or
// partitioned peer) — always within Machine.RelBound() of simulated time.
func (a *API) SendReliable(p *sim.Proc, dest int, payload []byte) error {
	if len(payload) > MaxReliablePayload {
		panic(fmt.Sprintf("core: payload %d exceeds reliable limit %d", len(payload), MaxReliablePayload))
	}
	defer a.busy("SendReliable")()
	a.relTag++
	tag := a.relTag
	body := make([]byte, 6+len(payload))
	binary.BigEndian.PutUint16(body[0:], uint16(dest))
	binary.BigEndian.PutUint32(body[2:], tag)
	copy(body[6:], payload)
	// The tx-queue producer counter assumes one writer at a time; reliable
	// sends are the one API designed for concurrent callers, so serialize the
	// submission (the status wait below stays concurrent).
	a.relLock.AcquireP(p)
	a.SendSvc(p, a.n.ID, firmware.SvcRelSend, body)
	a.relLock.Release()

	// The firmware guarantees a status within SendBound; add slack for the
	// submission itself so a *TimeoutError here always means a protocol bug.
	bound := 2 * a.m.RelBound()
	var code byte
	if err := a.pollWait(p, "SendReliable", bound, func() bool {
		c, ok := a.takeRelStatus(p, tag)
		if ok {
			code = c
		}
		return ok
	}); err != nil {
		return err
	}
	if code != firmware.RelOK {
		return &DeliveryError{Dest: dest}
	}
	return nil
}

// takeRelStatus consumes one status for tag if available: first from the
// stash of statuses other waiters drained, then by polling the hardware
// queue once. The queue poll is serialized across this node's aP procs (a
// slot read spans multiple simulated loads, so two procs interleaving on the
// same consumer pointer would double-read a slot).
func (a *API) takeRelStatus(p *sim.Proc, tag uint32) (byte, bool) {
	for i, st := range a.relStash {
		if st.tag == tag {
			a.relStash = append(a.relStash[:i], a.relStash[i+1:]...)
			return st.code, true
		}
	}
	a.relLock.AcquireP(p)
	defer a.relLock.Release()
	_, pl, ok := a.tryRecvSlot(p, "relStatus", node.RxRelStatus, node.SramRxRelStatBuf)
	if !ok {
		return 0, false
	}
	if len(pl) < 5 {
		panic(fmt.Sprintf("core: node %d: short reliable status (%d bytes)", a.n.ID, len(pl)))
	}
	st := relStatus{tag: binary.BigEndian.Uint32(pl[0:]), code: pl[4]}
	if st.tag == tag {
		return st.code, true
	}
	if len(a.relStash) >= relStashCap {
		panic(fmt.Sprintf("core: node %d: reliable status stash overflow", a.n.ID))
	}
	a.relStash = append(a.relStash, st)
	return 0, false
}

// relStashCap bounds the per-node stash of statuses read on behalf of other
// concurrent senders; overflow means statuses are being produced for sends
// nobody is waiting on (a protocol bug, not a load condition).
const relStashCap = 64

// TryRecvReliable polls the reliable receive queue once; ok is false when
// empty. src is the true origin node of the payload.
func (a *API) TryRecvReliable(p *sim.Proc) (src int, payload []byte, ok bool) {
	_, pl, ok := a.tryRecvSlot(p, "TryRecvReliable", node.RxRel, node.SramRxRelBuf)
	if !ok {
		return 0, nil, false
	}
	src, payload = a.relDelivery(pl)
	return src, payload, true
}

// relDelivery splits a reliable-queue slot into its origin node and payload.
func (a *API) relDelivery(pl []byte) (src int, payload []byte) {
	if len(pl) < 2 {
		panic(fmt.Sprintf("core: node %d: short reliable delivery (%d bytes)", a.n.ID, len(pl)))
	}
	return int(binary.BigEndian.Uint16(pl[0:])), pl[2:]
}

// RecvReliable blocks until a reliably-delivered message arrives.
func (a *API) RecvReliable(p *sim.Proc) (src int, payload []byte) {
	src, payload, _ = a.recvReliableT(p, noDeadline)
	return src, payload
}

// RecvReliableTimeout is RecvReliable with a bound: after timeout of
// simulated time with no message it returns a *TimeoutError (e.g. every
// remaining sender is dead).
func (a *API) RecvReliableTimeout(p *sim.Proc, timeout sim.Time) (src int, payload []byte, err error) {
	return a.recvReliableT(p, timeout)
}

func (a *API) recvReliableT(p *sim.Proc, timeout sim.Time) (src int, payload []byte, err error) {
	_, pl, err := a.recvSlotT(p, "RecvReliable", "TryRecvReliable", node.RxRel, node.SramRxRelBuf, timeout)
	if err != nil {
		return 0, nil, err
	}
	src, payload = a.relDelivery(pl)
	return src, payload, nil
}
