// Package fault is the deterministic network fault-injection plane. A Plan
// describes probabilistic per-lane faults (drop, corrupt, duplicate, delay),
// scheduled link-outage windows, and whole-node deaths; an Injector executes
// the plan against fabric traffic using a SplitMix64 stream seeded from the
// plan, so the same seed and plan reproduce the same faults byte for byte.
//
// Determinism rules: no wall clock, no global rand — every decision is a
// pure function of (plan, seed, simulation history). The package depends
// only on sim and stats so both Arctic fabrics can consult it without an
// import cycle.
package fault

import (
	"startvoyager/internal/sim"
)

// Network priority lanes, mirroring arctic.Priority without importing it.
const (
	LaneHigh = 0
	LaneLow  = 1
	numLanes = 2
)

// LaneProbs holds the probabilistic fault rates for one priority lane.
// Probabilities are in [0, 1] and are evaluated independently per packet.
type LaneProbs struct {
	Drop      float64 // silently lose the packet at injection
	Corrupt   float64 // flip one random bit of the wire bytes
	Duplicate float64 // deliver the packet twice
	DelayProb float64 // add extra latency before entering the fabric
	DelayMax  sim.Time
}

// Outage disables one directed link (or a wildcard set) for a window of
// simulated time: packets injected for (Src, Dst) while From <= now < To are
// dropped. Src or Dst of -1 match any node.
type Outage struct {
	Src, Dst int
	From, To sim.Time
}

// covers reports whether the outage applies to a packet on (src, dst) at now.
func (o Outage) covers(src, dst int, now sim.Time) bool {
	if now < o.From || now >= o.To {
		return false
	}
	if o.Src >= 0 && o.Src != src {
		return false
	}
	if o.Dst >= 0 && o.Dst != dst {
		return false
	}
	return true
}

// NodeDeath permanently partitions a node from the fabric at a simulated
// time: from At on, every packet to or from the node is dropped (including
// packets already in flight, which die at the delivery boundary). The node's
// processors keep executing — death models losing the machine's network
// presence, which is what its peers can observe.
type NodeDeath struct {
	Node int
	At   sim.Time
}

// Plan is a complete deterministic fault schedule.
type Plan struct {
	Seed    uint64
	Lanes   [numLanes]LaneProbs // indexed by network priority lane
	Outages []Outage
	Deaths  []NodeDeath
}

// UsesSeed reports whether the plan's seed decides anything: whether some
// lane has a rate that Injector.Judge draws against (drop, corrupt,
// duplicate, or delay with a nonzero bound), tested exactly as Judge tests
// it. Outages and deaths are fixed schedules, so a plan without such a rate
// runs the same at every seed.
func (p *Plan) UsesSeed() bool {
	for _, lp := range p.Lanes {
		if lp.Drop > 0 || lp.Corrupt > 0 || lp.Duplicate > 0 || lp.DelayProb > 0 && lp.DelayMax > 0 {
			return true
		}
	}
	return false
}
