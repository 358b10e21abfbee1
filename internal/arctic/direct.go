package arctic

import (
	"fmt"

	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// Direct is an idealized fabric: every pair of nodes is connected by a
// dedicated fixed-latency, fixed-bandwidth channel. It exists for unit
// testing higher layers in isolation from fat-tree effects, and as the
// "perfect network" baseline for ablation benchmarks.
type Direct struct {
	edge
	latency sim.Time
	flit    sim.Time // per-flit serialization; 0 = infinite bandwidth
	// chans[src*nodes+dst] serializes per-direction traffic.
	chans []*directChan
}

type directChan struct {
	d       *Direct
	dst     int
	busy    bool
	queue   []*Packet
	stalled []*Packet // refused deliveries, FIFO, retried on Poke
	// flight holds the packets serializing or in flight, in the order they
	// arrive: every packet crosses the channel in the same fixed latency.
	flight []*Packet
	// serializedFn and landFn are the channel's event callbacks, bound on
	// its first packet.
	serializedFn, landFn func()

	// Per-channel telemetry, mirroring the fat-tree's per-link series: wire
	// occupancy and stall onsets (here endpoint refusals rather than credit
	// exhaustion — the ideal fabric has unbounded buffering).
	busyNs   sim.Time
	stallCnt stats.Counter
}

// NewDirect builds an ideal fabric with the given one-way latency. If
// flitTime is nonzero, each (src,dst) direction serializes packets at
// FlitBytes per flitTime.
func NewDirect(eng *sim.Engine, numNodes int, latency, flitTime sim.Time) *Direct {
	d := &Direct{latency: latency, flit: flitTime, chans: make([]*directChan, numNodes*numNodes)}
	d.edge = newEdge(eng, numNodes, d.launch)
	for i := range d.chans {
		d.chans[i] = &directChan{d: d, dst: i % numNodes}
	}
	return d
}

// chanMetrics is a DirectNet channel's metric table.
var chanMetrics = stats.NewMetrics(
	stats.TimeOf("busy", func(c *directChan) sim.Time { return c.busyNs }),
	stats.CounterOf("credit_stalls", func(c *directChan) *stats.Counter { return &c.stallCnt }),
	stats.GaugeOf("queued", func(c *directChan) int64 { return int64(len(c.queue) + len(c.stalled)) }),
)

// directLinks is the family of a DirectNet's channels, ch<src>-<dst>.
var directLinks = stats.NewFamily(chanMetrics,
	func(d *Direct) int { return len(d.chans) },
	func(d *Direct, i int) string { return fmt.Sprintf("ch%d-%d", i/d.nodes, i%d.nodes) },
	func(d *Direct, i int) *directChan { return d.chans[i] })

// RegisterMetrics registers the fabric's counters under r, and its channels
// under r/link as one family.
func (d *Direct) RegisterMetrics(r *stats.Registry) {
	edgeMetrics.Register(r, &d.edge)
	directLinks.Register(r.Child("link"), d)
}

// InFlight counts packets buffered in the fabric's directional channels
// (queued or stalled on a refusing endpoint). With the event queue drained
// this is exactly injected-minus-delivered-minus-dropped, mirroring
// FatTree.InFlight for the conservation oracle.
func (d *Direct) InFlight() int {
	n := 0
	for _, c := range d.chans {
		n += len(c.queue) + len(c.stalled)
	}
	return n
}

// launch enters pkt into its directional channel.
//
//voyager:noalloc
func (d *Direct) launch(pkt *Packet) {
	ch := d.chans[pkt.Src*d.nodes+pkt.Dst]
	ch.queue = append(ch.queue, pkt) //voyager:alloc-ok(amortized: the FIFO keeps its storage)
	ch.kick()
}

// kick starts serializing the next packet. Serialization occupies the
// channel; the flight latency is pipelined (the next packet serializes
// while earlier ones are in flight), so a stream achieves full wire rate.
//
//voyager:noalloc
func (c *directChan) kick() {
	if c.busy || len(c.queue) == 0 {
		return
	}
	if c.serializedFn == nil {
		c.serializedFn = c.serialized //voyager:alloc-ok(one-time method binding, on the channel's first packet)
		c.landFn = c.land             //voyager:alloc-ok(one-time method binding, on the channel's first packet)
	}
	pkt := c.queue[0]
	c.queue = sim.PopFront(c.queue)
	c.flight = append(c.flight, pkt) //voyager:alloc-ok(amortized: the FIFO keeps its storage)
	c.busy = true
	ser := sim.Time(0)
	if c.d.flit > 0 {
		ser = sim.Time((pkt.Size+FlitBytes-1)/FlitBytes) * c.d.flit
	}
	c.busyNs += ser
	c.d.eng.Schedule(ser, c.serializedFn)
}

// serialized frees the channel once a packet is on the wire; the packet
// lands after the flight latency.
//
//voyager:noalloc
func (c *directChan) serialized() {
	c.busy = false
	c.d.eng.Schedule(c.d.latency, c.landFn)
	c.kick()
}

// land delivers the oldest packet in flight.
//
//voyager:noalloc
func (c *directChan) land() {
	pkt := c.flight[0]
	c.flight = sim.PopFront(c.flight)
	c.arrive(pkt)
}

//voyager:noalloc
func (c *directChan) arrive(pkt *Packet) {
	if c.d.faults != nil && c.d.faults.DropOnDelivery(pkt.Dst) {
		c.d.dropDead(pkt)
		return
	}
	// Preserve FIFO past a refusal: while anything is stalled, new arrivals
	// queue behind it.
	if len(c.stalled) > 0 {
		c.stallCnt.Events++
		c.stalled = append(c.stalled, pkt) //voyager:alloc-ok(amortized: the FIFO keeps its storage)
		return
	}
	if c.d.endpoints[pkt.Dst].TryDeliver(pkt) {
		c.d.delivered(pkt)
		return
	}
	c.d.stats.Refusals++
	c.stallCnt.Events++
	c.stalled = append(c.stalled, pkt) //voyager:alloc-ok(amortized: the FIFO keeps its storage)
}

// InjectReady always reports true: the ideal fabric buffers without bound.
func (d *Direct) InjectReady(node int, pri Priority) bool { return true }

// SetReadyHook is a no-op on the ideal fabric (injection is always ready).
func (d *Direct) SetReadyHook(node int, fn func()) {}

// Poke retries refused deliveries destined for node.
func (d *Direct) Poke(node int) {
	for src := 0; src < d.nodes; src++ {
		ch := d.chans[src*d.nodes+node]
		for len(ch.stalled) > 0 && d.tryDeliver(ch.stalled[0]) {
			ch.stalled = sim.PopFront(ch.stalled)
		}
	}
}
