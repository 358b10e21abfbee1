package arctic

import (
	"fmt"

	"startvoyager/internal/fault"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// Stats are fabric-wide delivery counters.
type Stats struct {
	Injected  uint64
	Delivered uint64
	Bytes     uint64
	Refusals  uint64 // endpoint backpressure events
	ByPri     [2]uint64
}

// edge is the boundary both fabrics share, where packets enter and leave:
// the attached endpoints, the delivery counters and latency histogram, and
// the fault injector. The injector rules once at injection (Judge —
// probabilistic drop/corrupt/duplicate/delay, outage windows, dead
// endpoints) and once at delivery (DropOnDelivery — a packet whose
// destination died in flight dies at the delivery boundary, as it would on
// real hardware whose receiver simply went away). Each fabric embeds edge
// and binds its own launch, which takes a fault-approved packet onto its
// links.
//
// The edge also keeps the fabric's packet pool (see Packet): NewPacket hands
// pooled packets out, and release takes each back where it leaves the
// fabric — after delivered's accounting, at an injection-time drop, and in
// dropDead — so every pooled packet dies at the edge it entered by.
type edge struct {
	eng       *sim.Engine
	nodes     int
	endpoints []Endpoint
	launchFn  func(*Packet)
	stats     Stats
	latHist   *stats.Histogram // end-to-end delivery latency (ns)
	faults    *fault.Injector  // nil = fault-free fabric

	free []*Packet // released pooled packets, reused last-in first-out
	out  int       // pooled packets handed out and not yet released
}

func newEdge(eng *sim.Engine, nodes int, launch func(*Packet)) edge {
	return edge{eng: eng, nodes: nodes, endpoints: make([]Endpoint, nodes), launchFn: launch,
		latHist: stats.NewHistogram(stats.ExpBounds(1000, 2, 12)...)}
}

// NumNodes returns the number of attachable endpoints.
func (e *edge) NumNodes() int { return e.nodes }

// SetFaults attaches a fault injector; nil restores the fault-free fabric.
func (e *edge) SetFaults(in *fault.Injector) { e.faults = in }

// Stats returns a snapshot of fabric counters.
func (e *edge) Stats() Stats { return e.stats }

// Attach registers the endpoint for node.
func (e *edge) Attach(node int, ep Endpoint) { e.endpoints[node] = ep }

// NewPacket hands out a zeroed pooled packet (see Packet).
//
//voyager:noalloc
func (e *edge) NewPacket() *Packet {
	e.out++
	if n := len(e.free); n > 0 {
		p := e.free[n-1]
		e.free = e.free[:n-1]
		return p
	}
	r := &pooledPacket{} //voyager:alloc-ok(pool warm-up; recycled thereafter)
	r.wire = &r.buf
	return &r.Packet
}

// release takes pkt back into the pool if it is a pooled packet; a
// caller-built packet is left to its caller. The record is zeroed, so no
// stale header, trace tag or payload outlives the packet.
//
//voyager:noalloc
func (e *edge) release(pkt *Packet) {
	if pkt.wire == nil {
		return
	}
	e.out--
	*pkt = Packet{wire: pkt.wire}
	e.free = append(e.free, pkt) //voyager:alloc-ok(amortized: pool backing array is retained)
}

// Outstanding counts the pooled packets the fabric has handed out and not
// taken back. A pooled packet is released exactly where it leaves the
// fabric, so once the event queue has drained this equals InFlight.
func (e *edge) Outstanding() int { return e.out }

// edgeMetrics is the metric table of a fabric's delivery counters and
// latency histogram; each fabric adds its link family under link/.
var edgeMetrics = stats.NewMetrics(
	stats.GaugeOf("injected", func(e *edge) int64 { return int64(e.stats.Injected) }),
	stats.GaugeOf("delivered", func(e *edge) int64 { return int64(e.stats.Delivered) }),
	stats.GaugeOf("bytes", func(e *edge) int64 { return int64(e.stats.Bytes) }),
	stats.GaugeOf("refusals", func(e *edge) int64 { return int64(e.stats.Refusals) }),
	stats.GaugeOf("high_pri", func(e *edge) int64 { return int64(e.stats.ByPri[High]) }),
	stats.GaugeOf("low_pri", func(e *edge) int64 { return int64(e.stats.ByPri[Low]) }),
	stats.HistogramOf("delivery_latency_ns", func(e *edge) *stats.Histogram { return e.latHist }),
)

// Inject sends pkt from pkt.Src toward pkt.Dst. The fabric owns pkt from
// here until it is delivered or dropped (see Packet).
func (e *edge) Inject(pkt *Packet) {
	if pkt.Size <= HeaderBytes || pkt.Size > MaxPacketBytes {
		panic(fmt.Sprintf("arctic: bad packet size %d", pkt.Size))
	}
	if pkt.Dst < 0 || pkt.Dst >= e.nodes || pkt.Src < 0 || pkt.Src >= e.nodes {
		panic(fmt.Sprintf("arctic: bad src/dst %d->%d", pkt.Src, pkt.Dst))
	}
	pkt.injected = e.eng.Now()
	e.stats.Injected++
	e.stats.ByPri[pkt.Priority]++
	if e.eng.Observed() {
		e.eng.Instant(pkt.Src, "net", "inject",
			pkt.Trace.AppendTo([]sim.Field{
				sim.Int("dst", pkt.Dst), sim.Int("size", pkt.Size),
				sim.Str("pri", pkt.Priority.String())})...)
	}
	if e.faults == nil {
		e.launchFn(pkt)
		return
	}
	launch, n, delay := e.judge(pkt)
	if n == 0 {
		if e.eng.Observed() && pkt.Trace.Traced() {
			e.eng.Instant(pkt.Src, "net", "msg-drop",
				pkt.Trace.AppendTo([]sim.Field{sim.Str("why", "fault")})...)
		}
		e.release(pkt)
		return
	}
	for _, lp := range launch[:n] {
		if delay > 0 {
			late := lp // a delayed launch is the fault path: it keeps its closure
			e.eng.Schedule(delay, func() { e.launchFn(late) })
		} else {
			e.launchFn(lp)
		}
	}
}

// judge applies the injector's injection-time ruling to pkt. It returns the
// n packets to actually launch — none for a drop, the original (possibly
// with corrupted wire bytes) otherwise, plus an independent pooled copy when
// the packet is duplicated, counted as injected so delivered <= injected
// stays true — and the extra latency to charge each of them. The wire it
// judges is the packet's Wire, which a caller-built packet lacks, so only
// pooled packets can be corrupted.
func (e *edge) judge(pkt *Packet) (launch [2]*Packet, n int, delay sim.Time) {
	wire := pkt.Wire()
	v := e.faults.Judge(pkt.Src, pkt.Dst, int(pkt.Priority), wire)
	if v.Drop {
		return launch, 0, 0
	}
	copy(wire, v.Wire) // a corrupted copy lands in the packet's own buffer
	launch[0], n = pkt, 1
	if v.Dup {
		dup := e.NewPacket()
		buf := dup.wire
		*dup = *pkt
		dup.wire = buf
		copy(dup.Wire(), wire)
		e.stats.Injected++
		e.stats.ByPri[dup.Priority]++
		launch[1], n = dup, 2
	}
	return launch, n, v.Delay
}

// tryDeliver hands pkt to its destination's endpoint, or kills it there if
// the destination has died since injection. It reports whether the packet
// left the fabric; on a refusal the caller keeps it for a retry on Poke.
//
//voyager:noalloc
func (e *edge) tryDeliver(pkt *Packet) bool {
	if e.faults != nil && e.faults.DropOnDelivery(pkt.Dst) {
		e.dropDead(pkt)
		return true
	}
	ep := e.endpoints[pkt.Dst]
	if ep == nil {
		panic(fmt.Sprintf("arctic: delivery to unattached node %d", pkt.Dst)) //voyager:alloc-ok(panic path)
	}
	if ep.TryDeliver(pkt) {
		e.delivered(pkt)
		return true
	}
	e.stats.Refusals++
	return false
}

// delivered updates delivery counters and emits the per-packet trace event,
// then takes the packet back; every acceptance path (first try and
// post-Poke retry) funnels through it.
//
//voyager:noalloc
func (e *edge) delivered(pkt *Packet) {
	e.stats.Delivered++
	e.stats.Bytes += uint64(pkt.Size)
	lat := e.eng.Now() - pkt.injected
	e.latHist.ObserveTime(lat)
	if e.eng.Observed() {
		e.eng.Instant(pkt.Dst, "net", "deliver", //voyager:alloc-ok(observed runs trade allocation for visibility)
			pkt.Trace.AppendTo([]sim.Field{
				sim.Int("src", pkt.Src), sim.I64("lat_ns", int64(lat)),
				sim.Int("size", pkt.Size)})...)
	}
	e.release(pkt)
}

// dropDead traces a packet killed at the delivery boundary (dead receiver)
// and takes it back.
//
//voyager:noalloc
func (e *edge) dropDead(pkt *Packet) {
	if e.eng.Observed() && pkt.Trace.Traced() {
		e.eng.Instant(pkt.Dst, "net", "msg-drop", //voyager:alloc-ok(observed runs trade allocation for visibility)
			pkt.Trace.AppendTo([]sim.Field{sim.Str("why", "dead")})...)
	}
	e.release(pkt)
}
