package arctic

import (
	"bytes"
	"testing"
	"unsafe"

	"startvoyager/internal/fault"
	"startvoyager/internal/sim"
)

// poolFabric is what the lifecycle tests need of either fabric.
type poolFabric interface {
	Fabric
	Outstanding() int
	InFlight() int
	SetFaults(*fault.Injector)
	Stats() Stats
}

// poolSink records each delivery: the packet (for identity only; a pooled
// packet is recycled once TryDeliver returns) and a copy of its wire bytes.
type poolSink struct {
	refuse bool
	got    []*Packet
	wires  [][]byte
}

func (s *poolSink) TryDeliver(p *Packet) bool {
	if s.refuse {
		return false
	}
	s.got = append(s.got, p)
	s.wires = append(s.wires, append([]byte(nil), p.Wire()...))
	return true
}

// poolRig is a 4-node fabric of either kind with a sink on node 1.
type poolRig struct {
	kind string
	eng  *sim.Engine
	f    poolFabric
	e    *edge
	sink *poolSink
}

func newPoolRigs(plan *fault.Plan) []*poolRig {
	var rigs []*poolRig
	for _, kind := range []string{"fattree", "direct"} {
		eng := sim.NewEngine()
		r := &poolRig{kind: kind, eng: eng, sink: &poolSink{}}
		switch kind {
		case "fattree":
			ft := NewFatTree(eng, 4, DefaultConfig())
			r.f, r.e = ft, &ft.edge
		default:
			d := NewDirect(eng, 4, 250, 100)
			r.f, r.e = d, &d.edge
		}
		if plan != nil {
			r.f.SetFaults(fault.NewInjector(eng, *plan))
		}
		r.f.Attach(1, r.sink)
		rigs = append(rigs, r)
	}
	return rigs
}

var poolWire = []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2}

// inject sends one pooled packet 0 -> 1 carrying poolWire.
func (r *poolRig) inject() *Packet {
	pkt := r.f.NewPacket()
	pkt.Src, pkt.Dst, pkt.Priority, pkt.Size = 0, 1, Low, len(poolWire)
	copy(pkt.Wire(), poolWire)
	r.f.Inject(pkt)
	return pkt
}

// pooled reports whether pkt sits in the fabric's free list.
func (r *poolRig) pooled(pkt *Packet) bool {
	for _, p := range r.e.free {
		if p == pkt {
			return true
		}
	}
	return false
}

// TestPacketSize pins a Packet at no more than 128 bytes: the bare-fabric
// benchmark builds its packets itself, so every byte added here is paid by
// every packet of a memory-bound run.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 128 {
		t.Fatalf("arctic.Packet is %d bytes, want at most 128", got)
	}
}

// TestPacketPoolLifecycle: on both fabrics a pooled packet returns to the
// pool exactly where it leaves the fabric — after delivery, after a Hold
// refusal only once Poke gets it accepted, and at a fault drop, an outage
// drop or a dead destination — while a duplicate gets a packet of its own
// and a caller-built packet never enters the pool.
func TestPacketPoolLifecycle(t *testing.T) {
	t.Run("delivery", func(t *testing.T) {
		for _, r := range newPoolRigs(nil) {
			pkt := r.inject()
			if r.f.Outstanding() != 1 {
				t.Fatalf("%s: %d outstanding after inject, want 1", r.kind, r.f.Outstanding())
			}
			r.eng.Run()
			if len(r.sink.got) != 1 || !bytes.Equal(r.sink.wires[0], poolWire) {
				t.Fatalf("%s: delivered %d packets, wire %v", r.kind, len(r.sink.got), r.sink.wires)
			}
			if r.f.Outstanding() != 0 || !r.pooled(pkt) {
				t.Fatalf("%s: after delivery %d outstanding, pooled=%v", r.kind, r.f.Outstanding(), r.pooled(pkt))
			}
			if pkt.Size != 0 || pkt.Src != 0 || pkt.Dst != 0 || pkt.Payload != nil {
				t.Fatalf("%s: a released packet keeps its header: %+v", r.kind, *pkt)
			}
			if again := r.f.NewPacket(); again != pkt {
				t.Fatalf("%s: NewPacket after a release did not reuse the released packet", r.kind)
			}
		}
	})
	t.Run("hold", func(t *testing.T) {
		for _, r := range newPoolRigs(nil) {
			r.sink.refuse = true
			pkt := r.inject()
			r.eng.Run()
			if r.f.Outstanding() != 1 || r.f.InFlight() != 1 || r.pooled(pkt) {
				t.Fatalf("%s: a refused packet: %d outstanding, %d in flight, pooled=%v",
					r.kind, r.f.Outstanding(), r.f.InFlight(), r.pooled(pkt))
			}
			r.sink.refuse = false
			r.f.Poke(1)
			r.eng.Run()
			if len(r.sink.got) != 1 || !bytes.Equal(r.sink.wires[0], poolWire) {
				t.Fatalf("%s: after Poke delivered %d packets, wire %v", r.kind, len(r.sink.got), r.sink.wires)
			}
			if r.f.Outstanding() != 0 || !r.pooled(pkt) {
				t.Fatalf("%s: after Poke %d outstanding, pooled=%v", r.kind, r.f.Outstanding(), r.pooled(pkt))
			}
		}
	})
	for _, d := range []struct {
		name string
		plan fault.Plan
	}{
		{"fault-drop", fault.Plan{Seed: 1, Lanes: [2]fault.LaneProbs{fault.LaneLow: {Drop: 1}}}},
		{"outage-drop", fault.Plan{Seed: 1, Outages: []fault.Outage{{Src: 0, Dst: 1, From: 0, To: sim.Millisecond}}}},
		// Node 1 dies after the packet is injected and before it arrives.
		{"dead-at-edge", fault.Plan{Seed: 1, Deaths: []fault.NodeDeath{{Node: 1, At: 100 * sim.Nanosecond}}}},
	} {
		plan := d.plan
		t.Run(d.name, func(t *testing.T) {
			for _, r := range newPoolRigs(&plan) {
				pkt := r.inject()
				r.eng.Run()
				st := r.f.Stats()
				if len(r.sink.got) != 0 || st.Injected != 1 || st.Delivered != 0 {
					t.Fatalf("%s: %d delivered to the sink, stats %+v; want a drop", r.kind, len(r.sink.got), st)
				}
				if r.f.Outstanding() != 0 || r.f.InFlight() != 0 || !r.pooled(pkt) {
					t.Fatalf("%s: after the drop %d outstanding, %d in flight, pooled=%v",
						r.kind, r.f.Outstanding(), r.f.InFlight(), r.pooled(pkt))
				}
			}
		})
	}
	t.Run("duplicate", func(t *testing.T) {
		plan := fault.Plan{Seed: 1, Lanes: [2]fault.LaneProbs{fault.LaneLow: {Duplicate: 1}}}
		for _, r := range newPoolRigs(&plan) {
			pkt := r.inject()
			if r.f.Outstanding() != 2 {
				t.Fatalf("%s: %d outstanding after a duplicated inject, want 2", r.kind, r.f.Outstanding())
			}
			r.eng.Run()
			if len(r.sink.got) != 2 || r.sink.got[0] == r.sink.got[1] {
				t.Fatalf("%s: duplicate delivered as %d packets %p", r.kind, len(r.sink.got), r.sink.got)
			}
			for i, w := range r.sink.wires {
				if !bytes.Equal(w, poolWire) {
					t.Fatalf("%s: copy %d carried wire %v", r.kind, i, w)
				}
			}
			if r.f.Outstanding() != 0 || len(r.e.free) != 2 || !r.pooled(pkt) {
				t.Fatalf("%s: after both deliveries %d outstanding, %d pooled", r.kind, r.f.Outstanding(), len(r.e.free))
			}
			if r.e.free[0].wire == r.e.free[1].wire {
				t.Fatalf("%s: the duplicate shared its original's wire buffer", r.kind)
			}
		}
	})
	t.Run("caller-built", func(t *testing.T) {
		plan := fault.Plan{Seed: 1, Lanes: [2]fault.LaneProbs{fault.LaneLow: {Duplicate: 1}}}
		for _, r := range newPoolRigs(&plan) {
			own := &Packet{Src: 0, Dst: 1, Priority: Low, Size: 12, Payload: "mine"}
			r.f.Inject(own)
			r.eng.Run()
			if len(r.sink.got) != 2 || r.sink.got[0] != own || r.sink.got[1] == own {
				t.Fatalf("%s: caller-built packet and its duplicate delivered as %p", r.kind, r.sink.got)
			}
			if r.pooled(own) || own.Payload != "mine" || own.Dst != 1 {
				t.Fatalf("%s: a caller-built packet entered the pool (pooled=%v, %+v)", r.kind, r.pooled(own), *own)
			}
			if r.f.Outstanding() != 0 || len(r.e.free) != 1 {
				t.Fatalf("%s: %d outstanding, %d pooled; want only the duplicate back in the pool",
					r.kind, r.f.Outstanding(), len(r.e.free))
			}
		}
	})
}
