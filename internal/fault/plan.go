package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"startvoyager/internal/sim"
)

// ParsePlan parses the -faults flag syntax into a Plan. The grammar is a
// comma-separated list of entries:
//
//	seed=7                probabilistic stream seed (default 1)
//	drop=0.05             drop probability, both lanes
//	corrupt=0.01          single-bit corruption probability, both lanes
//	dup=0.02              duplication probability, both lanes
//	delay=0.01@2us        extra-delay probability and maximum delay
//	outage=1-2@100us:600us directed link 1->2 down for [100us, 600us)
//	outage=*-0@1ms:2ms    every link into node 0 down for the window
//	death=3@1ms           node 3 leaves the network at 1 ms, permanently
//
// drop/corrupt/dup/delay accept a ".high" or ".low" suffix to set one lane
// only (e.g. drop.low=0.1). Times take ns/us/ms/s suffixes. outage and death
// may be repeated.
func ParsePlan(s string) (*Plan, error) {
	p := &Plan{Seed: 1}
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		key, val, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("fault: entry %q is not key=value (%s)", entry, clauseKinds)
		}
		if err := p.apply(key, val); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// clauseKinds enumerates the accepted grammar for error messages, so a typo
// in a -faults flag names what would have been legal.
const clauseKinds = "valid clauses: seed=N, drop=P, corrupt=P, dup=P, " +
	"delay=P@maxT, outage=SRC-DST@FROM:TO, death=NODE@T; " +
	"drop/corrupt/dup/delay take an optional .high/.low lane suffix"

func (p *Plan) apply(key, val string) error {
	base, lane, err := splitLane(key)
	if err != nil {
		return err
	}
	switch base {
	case "seed":
		n, err := strconv.ParseUint(val, 0, 64)
		if err != nil {
			return fmt.Errorf("fault: bad seed %q", val)
		}
		p.Seed = n
		return nil
	case "drop", "corrupt", "dup":
		f, err := parseProb(key, val)
		if err != nil {
			return err
		}
		return p.setLanes(lane, func(lp *LaneProbs) {
			switch base {
			case "drop":
				lp.Drop = f
			case "corrupt":
				lp.Corrupt = f
			case "dup":
				lp.Duplicate = f
			}
		})
	case "delay":
		probStr, durStr, ok := strings.Cut(val, "@")
		if !ok {
			return fmt.Errorf("fault: delay %q wants prob@maxtime (e.g. 0.01@2us)", val)
		}
		f, err := parseProb(key, probStr)
		if err != nil {
			return err
		}
		d, err := ParseTime(durStr)
		if err != nil {
			return err
		}
		if d <= 0 {
			return fmt.Errorf("fault: delay bound %q must be positive", durStr)
		}
		if f == 0 {
			d = 0 // a delay that never fires has no bound, and String omits it
		}
		return p.setLanes(lane, func(lp *LaneProbs) {
			lp.DelayProb = f
			lp.DelayMax = d
		})
	case "outage":
		if lane != "" {
			return fmt.Errorf("fault: outage takes no lane suffix")
		}
		o, err := parseOutage(val)
		if err != nil {
			return err
		}
		p.Outages = append(p.Outages, o)
		return nil
	case "death":
		if lane != "" {
			return fmt.Errorf("fault: death takes no lane suffix")
		}
		nodeStr, atStr, ok := strings.Cut(val, "@")
		if !ok {
			return fmt.Errorf("fault: death %q wants node@time (e.g. 3@1ms)", val)
		}
		node, err := strconv.Atoi(nodeStr)
		if err != nil || node < 0 {
			return fmt.Errorf("fault: bad death node %q", nodeStr)
		}
		at, err := ParseTime(atStr)
		if err != nil {
			return err
		}
		p.Deaths = append(p.Deaths, NodeDeath{Node: node, At: at})
		return nil
	default:
		return fmt.Errorf("fault: unknown plan key %q in entry %q (%s)", key, key+"="+val, clauseKinds)
	}
}

// setLanes applies set to the lanes selected by the suffix ("" = both).
func (p *Plan) setLanes(lane string, set func(*LaneProbs)) error {
	switch lane {
	case "":
		set(&p.Lanes[LaneHigh])
		set(&p.Lanes[LaneLow])
	case "high":
		set(&p.Lanes[LaneHigh])
	case "low":
		set(&p.Lanes[LaneLow])
	}
	return nil
}

func splitLane(key string) (base, lane string, err error) {
	base, lane, ok := strings.Cut(key, ".")
	if !ok {
		return key, "", nil
	}
	if lane != "high" && lane != "low" {
		return "", "", fmt.Errorf("fault: unknown lane suffix %q in key %q (want high or low; %s)", lane, key, clauseKinds)
	}
	return base, lane, nil
}

func parseProb(key, val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil || !(f >= 0 && f <= 1) { // NaN fails both
		return 0, fmt.Errorf("fault: %s wants a probability in [0,1], got %q", key, val)
	}
	return f, nil
}

// parseOutage parses "SRC-DST@FROM:TO" where SRC/DST are node numbers or *.
func parseOutage(val string) (Outage, error) {
	pair, window, ok := strings.Cut(val, "@")
	if !ok {
		return Outage{}, fmt.Errorf("fault: outage %q wants src-dst@from:to", val)
	}
	srcStr, dstStr, ok := strings.Cut(pair, "-")
	if !ok {
		return Outage{}, fmt.Errorf("fault: outage pair %q wants src-dst (use * as wildcard)", pair)
	}
	src, err := parseNodeOrWild(srcStr)
	if err != nil {
		return Outage{}, err
	}
	dst, err := parseNodeOrWild(dstStr)
	if err != nil {
		return Outage{}, err
	}
	fromStr, toStr, ok := strings.Cut(window, ":")
	if !ok {
		return Outage{}, fmt.Errorf("fault: outage window %q wants from:to", window)
	}
	from, err := ParseTime(fromStr)
	if err != nil {
		return Outage{}, err
	}
	to, err := ParseTime(toStr)
	if err != nil {
		return Outage{}, err
	}
	if to <= from {
		return Outage{}, fmt.Errorf("fault: outage window %q is empty", window)
	}
	return Outage{Src: src, Dst: dst, From: from, To: to}, nil
}

func parseNodeOrWild(s string) (int, error) {
	if s == "*" {
		return -1, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("fault: bad node %q (want a node number or *)", s)
	}
	return n, nil
}

// ParseTime parses a duration like "250ns", "2us", "1.5ms", or "1s" into
// simulated time.
func ParseTime(s string) (sim.Time, error) {
	s = strings.TrimSpace(s)
	unit := sim.Time(0)
	var num string
	switch {
	case strings.HasSuffix(s, "ns"):
		unit, num = sim.Nanosecond, strings.TrimSuffix(s, "ns")
	case strings.HasSuffix(s, "us"):
		unit, num = sim.Microsecond, strings.TrimSuffix(s, "us")
	case strings.HasSuffix(s, "ms"):
		unit, num = sim.Millisecond, strings.TrimSuffix(s, "ms")
	case strings.HasSuffix(s, "s"):
		unit, num = sim.Second, strings.TrimSuffix(s, "s")
	default:
		return 0, fmt.Errorf("fault: time %q wants a ns/us/ms/s suffix", s)
	}
	f, err := strconv.ParseFloat(num, 64)
	t := f * float64(unit)
	if err != nil || !(t >= 0 && t < math.MaxInt64) { // NaN fails both
		return 0, fmt.Errorf("fault: bad time %q", s)
	}
	return sim.Time(t), nil
}
