// Package arctic models the MIT Arctic network: a 4-ary fat-tree packet
// switch fabric with 160 MB/s/direction links, 96-byte maximum packets and
// two priority levels (the property StarT-Voyager's deadlock-avoidance
// depends on). Routers use deterministic up/down routing, so delivery
// between a given (source, destination, priority) triple is FIFO.
package arctic

import "startvoyager/internal/sim"

// Priority is a network packet priority lane. Arctic guarantees that High
// traffic is never blocked behind Low traffic, which the NIU uses to keep
// reply/system traffic flowing when request queues back up.
type Priority int

const (
	// High priority: replies and system traffic.
	High Priority = iota
	// Low priority: ordinary requests and data.
	Low
	numPriorities
)

// String returns "high" or "low".
func (p Priority) String() string {
	if p == High {
		return "high"
	}
	return "low"
}

// Wire-format constants for Arctic packets.
const (
	// HeaderBytes is the per-packet header overhead on the wire.
	HeaderBytes = 8
	// MaxPacketBytes is the largest packet Arctic carries.
	MaxPacketBytes = 96
	// MaxPayloadBytes is the largest payload per packet.
	MaxPayloadBytes = MaxPacketBytes - HeaderBytes
)

// Packet is one Arctic network packet. Payload is opaque to the network; the
// NIU layers attach their message representation to it.
//
// The fabric owns a packet from Fabric.Inject until it is delivered or
// dropped, and carries its route state in it the way a router carries the
// route in the header: inject a fresh packet each time, and leave it alone
// while it is in flight.
type Packet struct {
	Src, Dst int
	Priority Priority
	// Size is the total wire size in bytes including header; it determines
	// serialization time. Must be in (HeaderBytes, MaxPacketBytes].
	Size    int
	Payload interface{}

	// Trace is the payload message's causal trace context; the fabric carries
	// it untouched (sideband, not part of Size) so path analysis can link the
	// network hop to the surrounding NIU stages.
	Trace sim.MsgTag

	injected sim.Time

	// Fat-tree hop state. The packet is at switch (lvl, word) and still
	// has climb up links to take before it turns down toward Dst.
	lvl, word, climb int
	readyAt          sim.Time // router pipeline done: serialization may start
	// While the packet waits for a lane slot: the upstream link it holds
	// blocked, and when the credit stall began.
	from  *link
	since sim.Time
}

// InjectedAt returns the time the packet entered the fabric (set by the
// fabric on injection).
func (p *Packet) InjectedAt() sim.Time { return p.injected }

// traceFields appends a packet's causal trace attributes ("msg", and
// "attempt" for retransmissions) to an event's field list; untraced packets
// add nothing, keeping fault-free untagged traffic's events unchanged.
func traceFields(fields []sim.Field, t sim.MsgTag) []sim.Field {
	if t.Traced() {
		fields = append(fields, sim.I64("msg", int64(t.ID)))
		if t.Attempt > 1 {
			fields = append(fields, sim.I64("attempt", int64(t.Attempt)))
		}
	}
	return fields
}

// Endpoint receives packets from the fabric. TryDeliver returns false to
// refuse the packet (backpressure): the fabric then stalls that packet's
// priority lane on the final link until the endpoint calls Fabric.Poke.
type Endpoint interface {
	TryDeliver(pkt *Packet) bool
}

// EndpointFunc adapts a function to the Endpoint interface (always accepts).
type EndpointFunc func(pkt *Packet)

// TryDeliver delivers the packet and reports acceptance.
func (f EndpointFunc) TryDeliver(pkt *Packet) bool { f(pkt); return true }

// Fabric is a network connecting NumNodes endpoints.
type Fabric interface {
	NumNodes() int
	// Attach registers the endpoint for a node. Must be called before the
	// first delivery to that node.
	Attach(node int, ep Endpoint)
	// Inject sends a packet from pkt.Src toward pkt.Dst. The fabric owns
	// pkt until it is delivered or dropped: pass a fresh packet each time.
	Inject(pkt *Packet)
	// Poke tells the fabric that node's endpoint, having previously refused
	// a delivery, may now accept; the fabric retries stalled packets.
	Poke(node int)
	// InjectReady reports whether node may inject more traffic on the given
	// priority lane (finite fabric buffering); SetReadyHook registers the
	// wake-up call for when room returns on any lane.
	InjectReady(node int, pri Priority) bool
	SetReadyHook(node int, fn func())
}
