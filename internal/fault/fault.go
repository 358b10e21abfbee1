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

// rng is a SplitMix64 stream — the same generator the workload package uses
// for seed derivation. It is tiny, fast, and completely reproducible.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform draw in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
