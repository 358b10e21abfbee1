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

// Packet is one Arctic network packet. Its contents — a pooled packet's
// Wire bytes, a caller-built packet's Payload — are opaque to the network,
// which only flips Wire bits when a fault plan corrupts the packet.
//
// The fabric owns a packet from Fabric.Inject until it is delivered or
// dropped, and carries its route state in it the way a router carries the
// route in the header: inject a fresh packet each time, and leave it alone
// while it is in flight.
//
// A packet is pooled or caller-built. Fabric.NewPacket hands out a pooled
// packet, whose wire bytes (Wire) live in the same pooled record; the fabric
// takes it back where it leaves the fabric — after its delivery is
// accounted, or where it is dropped (a fault or outage ruling at Inject, a
// dead destination at delivery) — and hands it out again. So an endpoint
// copies what it needs out of a packet before TryDeliver returns true, and
// nobody keeps a pooled packet past that. A caller-built packet (a Packet
// value the caller allocates) carries its message in Payload and is never
// recycled.
type Packet struct {
	Src, Dst int
	Priority Priority
	// Size is the total wire size in bytes including header; it determines
	// serialization time. Must be in (HeaderBytes, MaxPacketBytes]. On a
	// pooled packet it is also the length of Wire.
	Size    int
	Payload interface{}

	// Trace is the payload message's causal trace context; the fabric carries
	// it untouched (sideband, not part of Size) so path analysis can link the
	// network hop to the surrounding NIU stages.
	Trace sim.MsgTag

	injected sim.Time

	// wire is a pooled packet's wire buffer, nil on a caller-built packet.
	wire *[MaxPacketBytes]byte

	// Fat-tree hop state. The packet is at switch (lvl, word) and still
	// has climb up links to take before it turns down toward Dst. The
	// narrow widths keep a Packet within 128 bytes: a tree has at most a
	// few levels, and word < Radix^(levels-1).
	lvl, climb int16
	word       int32
	readyAt    sim.Time // router pipeline done: serialization may start
	// While the packet waits for a lane slot: the upstream link it holds
	// blocked, and when the credit stall began.
	from  *link
	since sim.Time
}

// pooledPacket is the record behind a pooled packet: the packet and its
// wire buffer in one allocation.
type pooledPacket struct {
	Packet
	buf [MaxPacketBytes]byte
}

// InjectedAt returns the time the packet entered the fabric (set by the
// fabric on injection).
func (p *Packet) InjectedAt() sim.Time { return p.injected }

// Wire returns a pooled packet's wire bytes, the first Size bytes of its
// buffer, for the sender to fill and the endpoint to read; a caller-built
// packet has none.
//
//voyager:noalloc
func (p *Packet) Wire() []byte {
	if p.wire == nil {
		return nil
	}
	return p.wire[:p.Size]
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
	// NewPacket hands out a zeroed pooled packet (see Packet). The caller
	// sets its header fields and Size, writes Wire, and passes it to Inject;
	// the fabric takes it back when it leaves the fabric.
	NewPacket() *Packet
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
