package fault

import (
	"startvoyager/internal/sim"
)

// GenPlan derives a random fault plan from a seed — the generation side of
// the chaos harness. The same (seed, nodes, horizon) triple always produces
// the same plan on every platform: every decision is drawn from one
// SplitMix64 stream in a fixed order, with no floats in control flow beyond
// rate values that are themselves deterministic.
//
// The distribution is biased toward the boundary cases where in-network
// protocols break: outage windows starting at time zero, back-to-back and
// overlapping windows, wildcard endpoints mixed with concrete ones, node
// deaths mid-transfer, and drop rates at the retransmit ladder's edge.
// horizon is the sim-time span the workload is expected to keep traffic in
// flight; windows and deaths are placed inside it so they actually bite.
func GenPlan(seed uint64, nodes int, horizon sim.Time) *Plan {
	r := sim.NewSplitMix64(seed)
	p := &Plan{Seed: r.Next() | 1}
	if nodes < 2 || horizon <= 0 {
		return p
	}

	// Probabilistic lane rates: usually shared across lanes (the common
	// operator input), sometimes split so High-lane ACK traffic sees
	// different weather than Low-lane data.
	split := r.Intn(4) == 0
	p.Lanes[LaneHigh].Drop = genProb(&r)
	p.Lanes[LaneHigh].Corrupt = genProb(&r)
	p.Lanes[LaneHigh].Duplicate = genProb(&r)
	if split {
		p.Lanes[LaneLow].Drop = genProb(&r)
		p.Lanes[LaneLow].Corrupt = genProb(&r)
		p.Lanes[LaneLow].Duplicate = genProb(&r)
	} else {
		p.Lanes[LaneLow] = p.Lanes[LaneHigh]
	}
	if r.Intn(3) == 0 {
		prob := genDelayProb(&r)
		max := genDelayMax(&r)
		p.Lanes[LaneHigh].DelayProb = prob
		p.Lanes[LaneHigh].DelayMax = max
		p.Lanes[LaneLow].DelayProb = prob
		p.Lanes[LaneLow].DelayMax = max
	}

	// Outage windows: 0-3, chained so consecutive windows are sometimes
	// back-to-back (To == next From) or overlapping — the orderings that
	// stress the covers() half-open arithmetic and the recovery path.
	nOutages := pick(&r, 35, 30, 20, 15)
	var prev *Outage
	for i := 0; i < nOutages; i++ {
		o := genOutage(&r, nodes, horizon, prev)
		p.Outages = append(p.Outages, o)
		prev = &p.Outages[len(p.Outages)-1]
	}

	// Node deaths: rare, at most nodes-1 so somebody survives to observe.
	nDeaths := pick(&r, 70, 25, 5)
	if nDeaths > nodes-1 {
		nDeaths = nodes - 1
	}
	used := 0 // bitmask of dead nodes; a node dies at most once
	for i := 0; i < nDeaths; i++ {
		node := r.Intn(nodes)
		if used&(1<<node) != 0 {
			continue
		}
		used |= 1 << node
		at := genTime(&r, horizon/8, horizon/2)
		if r.Intn(8) == 0 {
			at = 0 // dead on arrival: every exchange with it must fail fast
		}
		p.Deaths = append(p.Deaths, NodeDeath{Node: node, At: at})
	}
	return p
}

// genProb draws a drop/corrupt/dup rate: usually zero, sometimes light,
// occasionally at the heavy boundary where the backoff ladder gets climbed.
func genProb(r *sim.SplitMix64) float64 {
	switch pick(r, 55, 25, 12, 8) {
	case 1:
		return float64(1+r.Intn(5)) / 100 // 0.01 .. 0.05
	case 2:
		return float64(10+r.Intn(11)) / 100 // 0.10 .. 0.20
	case 3:
		return 0.5 // boundary: every other packet
	default:
		return 0
	}
}

// genDelayProb draws a nonzero extra-latency probability.
func genDelayProb(r *sim.SplitMix64) float64 { return float64(1+r.Intn(10)) / 100 }

// genDelayMax draws the delay bound, biased around the 30us initial RTO so
// delayed frames race the retransmit timer.
func genDelayMax(r *sim.SplitMix64) sim.Time {
	switch r.Intn(4) {
	case 0:
		return 1 * sim.Microsecond
	case 1:
		return 10 * sim.Microsecond
	case 2:
		return 30 * sim.Microsecond // the R-Basic initial RTO
	default:
		return 100 * sim.Microsecond
	}
}

// genOutage draws one outage window. prev, when non-nil, lets the generator
// chain windows: back-to-back (adjacent, no gap) or overlapping with the
// previous one.
func genOutage(r *sim.SplitMix64, nodes int, horizon sim.Time, prev *Outage) Outage {
	o := Outage{Src: genNode(r, nodes), Dst: genNode(r, nodes)}
	width := genWidth(r, horizon)
	switch {
	case prev != nil && r.Intn(2) == 0:
		if r.Intn(2) == 0 {
			o.From = prev.To // back-to-back: window starts the instant the last ends
		} else {
			o.From = prev.From + (prev.To-prev.From)/2 // overlapping halves
		}
	case r.Intn(6) == 0:
		o.From = 0 // boundary: link down from time zero
	default:
		o.From = genTime(r, 0, horizon/2)
	}
	o.To = o.From + width
	return o
}

// genWidth draws an outage duration: a sliver, a typical slice, or a long
// haul that outlives several retransmit timeouts.
func genWidth(r *sim.SplitMix64, horizon sim.Time) sim.Time {
	switch r.Intn(3) {
	case 0:
		return sim.Time(1+r.Intn(5)) * sim.Microsecond
	case 1:
		return horizon / 16
	default:
		return horizon / 4
	}
}

// genNode draws an endpoint: concrete most of the time, the * wildcard
// otherwise (mixing the two is one of the plan-grammar edge cases).
func genNode(r *sim.SplitMix64, nodes int) int {
	if r.Intn(4) == 0 {
		return -1
	}
	return r.Intn(nodes)
}

// genTime draws a time uniformly in [lo, hi); lo when the range is empty.
func genTime(r *sim.SplitMix64, lo, hi sim.Time) sim.Time {
	if hi <= lo {
		return lo
	}
	return lo + sim.Time(r.Intn(int(hi-lo)))
}

// pick draws an index weighted by the given percentages (which the caller
// keeps summing to 100).
func pick(r *sim.SplitMix64, weights ...int) int {
	n := r.Intn(100)
	acc := 0
	for i, w := range weights {
		acc += w
		if n < acc {
			return i
		}
	}
	return len(weights) - 1
}
