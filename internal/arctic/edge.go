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
type edge struct {
	eng       *sim.Engine
	nodes     int
	endpoints []Endpoint
	launchFn  func(*Packet)
	stats     Stats
	latHist   *stats.Histogram // end-to-end delivery latency (ns)
	faults    *fault.Injector  // nil = fault-free fabric
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

// registerMetrics registers the delivery counters and latency histogram
// under r; each fabric adds its per-link children.
func (e *edge) registerMetrics(r *stats.Registry) {
	r.Gauge("injected", func() int64 { return int64(e.stats.Injected) })
	r.Gauge("delivered", func() int64 { return int64(e.stats.Delivered) })
	r.Gauge("bytes", func() int64 { return int64(e.stats.Bytes) })
	r.Gauge("refusals", func() int64 { return int64(e.stats.Refusals) })
	r.Gauge("high_pri", func() int64 { return int64(e.stats.ByPri[High]) })
	r.Gauge("low_pri", func() int64 { return int64(e.stats.ByPri[Low]) })
	r.Histogram("delivery_latency_ns", e.latHist)
}

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
	launch, delay := e.judge(pkt)
	if len(launch) == 0 && e.eng.Observed() && pkt.Trace.Traced() {
		e.eng.Instant(pkt.Src, "net", "msg-drop",
			pkt.Trace.AppendTo([]sim.Field{sim.Str("why", "fault")})...)
	}
	for _, lp := range launch {
		lp := lp
		if delay > 0 {
			e.eng.Schedule(delay, func() { e.launchFn(lp) })
		} else {
			e.launchFn(lp)
		}
	}
}

// judge applies the injector's injection-time ruling to pkt. It returns the
// packets to actually launch — empty for a drop, the original (possibly with
// corrupted payload bytes) otherwise, plus an independent copy when the
// packet is duplicated, counted as injected so delivered <= injected stays
// true — and the extra latency to charge each of them.
func (e *edge) judge(pkt *Packet) (launch []*Packet, delay sim.Time) {
	wire, _ := pkt.Payload.([]byte)
	v := e.faults.Judge(pkt.Src, pkt.Dst, int(pkt.Priority), wire)
	if v.Drop {
		return nil, 0
	}
	if wire != nil {
		pkt.Payload = v.Wire
	}
	launch = append(launch, pkt)
	if v.Dup {
		dup := *pkt
		if wire != nil {
			dup.Payload = append([]byte(nil), v.Wire...)
		}
		e.stats.Injected++
		e.stats.ByPri[dup.Priority]++
		launch = append(launch, &dup)
	}
	return launch, v.Delay
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

// delivered updates delivery counters and emits the per-packet trace event;
// every acceptance path (first try and post-Poke retry) funnels through it.
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
}

// dropDead traces a packet killed at the delivery boundary (dead receiver).
//
//voyager:noalloc
func (e *edge) dropDead(pkt *Packet) {
	if e.eng.Observed() && pkt.Trace.Traced() {
		e.eng.Instant(pkt.Dst, "net", "msg-drop", //voyager:alloc-ok(observed runs trade allocation for visibility)
			pkt.Trace.AppendTo([]sim.Field{sim.Str("why", "dead")})...)
	}
}
