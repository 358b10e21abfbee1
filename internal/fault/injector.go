package fault

import (
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// Stats counts the faults the injector has actually committed.
type Stats struct {
	InjectedDrops uint64 // probabilistic drops at injection
	Corrupted     uint64 // packets with a bit flipped
	Duplicated    uint64 // extra copies delivered
	Delayed       uint64 // packets given extra latency
	OutageDrops   uint64 // drops due to a scheduled link outage
	DeathDrops    uint64 // drops due to a dead src or dst node
}

// Verdict is the injector's ruling on one packet at its injection point.
type Verdict struct {
	Drop  bool     // lose the packet entirely
	Dup   bool     // deliver a second, independent copy
	Delay sim.Time // extra latency before the packet enters the fabric
	Wire  []byte   // payload to use; differs from the input when corrupted
}

// Injector executes a Plan against fabric traffic. Both Arctic fabrics call
// Judge once per injected packet and DropOnDelivery once per ejection attempt,
// so fault decisions land at the same boundaries on either topology.
type Injector struct {
	eng       *sim.Engine
	plan      Plan
	rng       sim.SplitMix64
	stats     Stats
	delayHist *stats.Histogram
}

// NewInjector builds an injector for the plan. The engine is used for sim
// time (outage windows, node deaths) and for trace instants.
func NewInjector(eng *sim.Engine, plan Plan) *Injector {
	return &Injector{
		eng:       eng,
		plan:      plan,
		rng:       sim.NewSplitMix64(plan.Seed),
		delayHist: stats.NewHistogram(stats.ExpBounds(100, 2, 12)...),
	}
}

// Stats returns a snapshot of the fault counters.
func (in *Injector) Stats() Stats { return in.stats }

// dead reports whether the node has died by now.
func (in *Injector) dead(node int, now sim.Time) bool {
	for _, d := range in.plan.Deaths {
		if d.Node == node && now >= d.At {
			return true
		}
	}
	return false
}

// Judge rules on one packet at injection. src/dst are node indices, lane is
// the network priority (LaneHigh/LaneLow), and wire is the encoded frame.
// Loopback traffic (src == dst) always passes untouched: the fault plane
// models the external network, and the node-internal path stays ideal.
func (in *Injector) Judge(src, dst, lane int, wire []byte) Verdict {
	v := Verdict{Wire: wire}
	if src == dst {
		return v
	}
	now := in.eng.Now()
	if in.dead(src, now) || in.dead(dst, now) {
		in.stats.DeathDrops++
		v.Drop = true
		in.instant("fault-death", src, dst)
		return v
	}
	for _, o := range in.plan.Outages {
		if o.covers(src, dst, now) {
			in.stats.OutageDrops++
			v.Drop = true
			in.instant("fault-outage", src, dst)
			return v
		}
	}
	if lane < 0 || lane >= numLanes {
		lane = LaneLow
	}
	lp := &in.plan.Lanes[lane]
	if lp.Drop > 0 && in.rng.Float() < lp.Drop {
		in.stats.InjectedDrops++
		v.Drop = true
		in.instant("fault-drop", src, dst)
		return v
	}
	if lp.Corrupt > 0 && len(wire) > 0 && in.rng.Float() < lp.Corrupt {
		w := make([]byte, len(wire))
		copy(w, wire)
		bit := in.rng.Intn(len(w) * 8)
		w[bit/8] ^= 1 << (bit % 8)
		v.Wire = w
		in.stats.Corrupted++
		in.instant("fault-corrupt", src, dst)
	}
	if lp.Duplicate > 0 && in.rng.Float() < lp.Duplicate {
		v.Dup = true
		in.stats.Duplicated++
		in.instant("fault-dup", src, dst)
	}
	if lp.DelayProb > 0 && lp.DelayMax > 0 && in.rng.Float() < lp.DelayProb {
		v.Delay = sim.Time(1 + in.rng.Intn(int(lp.DelayMax)))
		in.stats.Delayed++
		in.delayHist.ObserveTime(v.Delay)
		in.instant("fault-delay", src, dst)
	}
	return v
}

// DropOnDelivery reports whether an in-flight packet must die at the
// delivery boundary because its destination node has died since injection.
func (in *Injector) DropOnDelivery(dst int) bool {
	if !in.dead(dst, in.eng.Now()) {
		return false
	}
	in.stats.DeathDrops++
	in.instant("fault-death", -1, dst)
	return true
}

func (in *Injector) instant(name string, src, dst int) {
	if !in.eng.Observed() {
		return
	}
	node := src
	if node < 0 {
		node = dst
	}
	in.eng.Instant(node, "net", name, sim.Int("src", src), sim.Int("dst", dst))
}

// injectorMetrics is the injector's metric table.
var injectorMetrics = stats.NewMetrics(
	stats.GaugeOf("injected_drops", func(in *Injector) int64 { return int64(in.stats.InjectedDrops) }),
	stats.GaugeOf("corrupted", func(in *Injector) int64 { return int64(in.stats.Corrupted) }),
	stats.GaugeOf("duplicated", func(in *Injector) int64 { return int64(in.stats.Duplicated) }),
	stats.GaugeOf("delayed", func(in *Injector) int64 { return int64(in.stats.Delayed) }),
	stats.GaugeOf("outage_drops", func(in *Injector) int64 { return int64(in.stats.OutageDrops) }),
	stats.GaugeOf("death_drops", func(in *Injector) int64 { return int64(in.stats.DeathDrops) }),
	stats.HistogramOf("delay_ns", func(in *Injector) *stats.Histogram { return in.delayHist }),
)

// RegisterMetrics exposes the fault counters, typically under net/fault.
func (in *Injector) RegisterMetrics(r *stats.Registry) { injectorMetrics.Register(r, in) }
