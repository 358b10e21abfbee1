package chaos

import (
	"fmt"

	"startvoyager/internal/arctic"
	"startvoyager/internal/core"
	"startvoyager/internal/fault"
	"startvoyager/internal/node"
	"startvoyager/internal/sim"
	"startvoyager/internal/trace"
)

// Oracle names, as they appear in findings. A shrunken repro is re-verified
// against the oracle name, so these are stable identifiers, not prose.
const (
	OracleWatchdog     = "watchdog"     // budget exceeded or deadlock (sim.StallError)
	OracleExactlyOnce  = "exactly-once" // reliable delivery duplicated or lost an acked send
	OracleInvention    = "no-invention" // a receiver consumed a payload nobody sent
	OracleConservation = "conservation" // fabric packets unaccounted for
	OracleQuiescence   = "quiescence"   // buffered work left behind after the run drained
	OracleTelescoping  = "telescoping"  // trace stage durations do not sum to latency
	OracleMonotone     = "monotone"     // a cumulative metric went backwards
	OracleMetrics      = "metrics"      // injector counters disagree with the registry
	OracleMemcheck     = "memcheck"     // shared-memory history not linearizable
)

// Violation is one oracle failure in one cell. Details are built entirely
// from simulated state, so they are as deterministic as the run itself.
type Violation struct {
	Oracle string `json:"oracle"`
	Detail string `json:"detail"`
}

func violationf(oracle, format string, args ...interface{}) Violation {
	return Violation{Oracle: oracle, Detail: fmt.Sprintf(format, args...)}
}

// checkConservation balances the fabric's packet counters against the
// injector's committed drops and the packets still buffered in the fabric:
//
//	injected == delivered + injected_drops + outage_drops + death_drops + in_flight
//
// and the fabric's packet pool against the same buffers: every pooled packet
// the fabric handed out and has not taken back must still be in flight.
// Both are exact once the event queue has drained. A deficit means the
// fabric lost a packet without a fault ruling (or leaked a pooled one); a
// surplus means one was delivered, counted or released twice.
func checkConservation(m *core.Machine) []Violation {
	fb, ok := m.Fabric.(interface{ Stats() arctic.Stats })
	if !ok {
		return nil
	}
	st := fb.Stats()
	var fs fault.Stats
	if m.Faults != nil {
		fs = m.Faults.Stats()
	}
	var out []Violation
	inFlight := fabricInFlight(m)
	want := st.Delivered + fs.InjectedDrops + fs.OutageDrops + fs.DeathDrops + uint64(inFlight)
	if st.Injected != want {
		out = append(out, violationf(OracleConservation,
			"injected %d != delivered %d + drops (prob %d, outage %d, death %d) + in-flight %d",
			st.Injected, st.Delivered, fs.InjectedDrops, fs.OutageDrops, fs.DeathDrops, inFlight))
	}
	if p, ok := m.Fabric.(interface{ Outstanding() int }); ok && p.Outstanding() != inFlight {
		out = append(out, violationf(OracleConservation,
			"%d pooled packets outstanding but %d in flight", p.Outstanding(), inFlight))
	}
	return out
}

func fabricInFlight(m *core.Machine) int {
	if f, ok := m.Fabric.(interface{ InFlight() int }); ok {
		return f.InFlight()
	}
	return 0
}

// checkQuiescence verifies that a drained run left no work wedged in the
// machine: no transmit descriptors accepted but unlaunched, no reliable
// sends awaiting ACKs, no credit-protocol lane over capacity, and no more
// undelivered reliable payloads than the failed sends that can legitimately
// strand them (a failed send's frame may still arrive after its sender gave
// up; exactly-once suppression bounds the leftovers by the failure count).
func checkQuiescence(m *core.Machine, relLeftoverAllowed int) []Violation {
	var out []Violation
	for i, n := range m.Nodes {
		if bl := n.Ctrl.TxBacklog(); bl != 0 {
			out = append(out, violationf(OracleQuiescence,
				"node %d CTRL holds %d unlaunched transmit descriptors", i, bl))
		}
	}
	for _, r := range m.Rels {
		if err := r.Quiesced(); err != nil {
			out = append(out, violationf(OracleQuiescence, "%v", err))
		}
	}
	leftover := 0
	for _, n := range m.Nodes {
		leftover += int(n.Ctrl.RxProducer(node.RxRel) - n.Ctrl.RxConsumer(node.RxRel))
	}
	if leftover > relLeftoverAllowed {
		out = append(out, violationf(OracleQuiescence,
			"%d undelivered reliable payloads left in RX queues (at most %d failed sends could strand one)",
			leftover, relLeftoverAllowed))
	}
	if f, ok := m.Fabric.(interface{ CheckLanes() error }); ok {
		if err := f.CheckLanes(); err != nil {
			out = append(out, violationf(OracleQuiescence, "%v", err))
		}
	}
	return out
}

// checkBasicLedger balances the Basic ring at the application level: the
// only wire traffic in a Basic cell is the workload's own frames, so the
// fabric's injection count must equal the sends plus injector duplicates,
// and its delivery count must equal what the receivers consumed plus
// whatever is still queued. A mismatch is a frame minted or lost inside the
// NIU, below the fault plane.
func checkBasicLedger(m *core.Machine, sentTotal, accounted int) []Violation {
	fb, ok := m.Fabric.(interface{ Stats() arctic.Stats })
	if !ok {
		return nil
	}
	st := fb.Stats()
	var dup uint64
	if m.Faults != nil {
		dup = m.Faults.Stats().Duplicated
	}
	var out []Violation
	if st.Injected != uint64(sentTotal)+dup {
		out = append(out, violationf(OracleConservation,
			"fabric injected %d frames for %d sends + %d duplicates", st.Injected, sentTotal, dup))
	}
	if st.Delivered != uint64(accounted) {
		out = append(out, violationf(OracleConservation,
			"fabric delivered %d frames but receivers account for %d", st.Delivered, accounted))
	}
	return out
}

// checkTelescoping replays the cell's trace through the causal-path
// analyzer and verifies the attribution invariant: every traced message's
// stage durations sum exactly to its end-to-end latency, with no residue.
// Orphan chains with an untruncated tap mean lifecycle events went missing.
func checkTelescoping(tap *lifecycleTap) []Violation {
	var out []Violation
	if tap.dropped > 0 {
		return []Violation{violationf(OracleTelescoping,
			"lifecycle tap dropped %d events past its %d cap; the cell's traffic outgrew the tap (run fewer -msgs or -nodes)",
			tap.dropped, tapCap)}
	}
	an := trace.AnalyzePaths(tap.events)
	if an.Orphans > 0 {
		out = append(out, violationf(OracleTelescoping,
			"%d orphan chains in an untruncated trace (lifecycle events missing)", an.Orphans))
	}
	for _, mp := range an.Msgs {
		var sum sim.Time
		for _, s := range mp.Stages {
			sum += s.Dur
		}
		if sum != mp.Total() {
			out = append(out, violationf(OracleTelescoping,
				"msg %d: stages sum to %v but end-to-end latency is %v", mp.ID, sum, mp.Total()))
		}
	}
	return out
}

// monotoneGauges are cumulative by contract: each may only grow over a run.
var monotoneGauges = []string{
	"net/injected", "net/delivered", "net/bytes", "net/refusals",
	"net/high_pri", "net/low_pri",
	"net/fault/injected_drops", "net/fault/corrupted", "net/fault/duplicated",
	"net/fault/delayed", "net/fault/outage_drops", "net/fault/death_drops",
}

// monotoneWatch samples the cumulative gauges at run-slice boundaries and
// reports any that move backwards — a counter reset or double-registered
// metric that a single end-of-run snapshot can never see.
type monotoneWatch struct {
	m    *core.Machine
	last map[string]int64
}

func newMonotoneWatch(m *core.Machine) *monotoneWatch {
	return &monotoneWatch{m: m, last: make(map[string]int64, len(monotoneGauges))}
}

func (w *monotoneWatch) sample() []Violation {
	var out []Violation
	reg := w.m.Metrics()
	for _, path := range monotoneGauges {
		v, ok := reg.ReadGauge(path)
		if !ok {
			continue
		}
		if prev, seen := w.last[path]; seen && v < prev {
			out = append(out, violationf(OracleMonotone,
				"%s went backwards: %d after %d (at %v)", path, v, prev, w.m.Eng.Now()))
		}
		w.last[path] = v
	}
	return out
}

// checkInjectorRegistry cross-checks the injector's struct counters against
// their registry gauges — the two views chaos findings and voyager-stats
// reports are built from must never disagree.
func checkInjectorRegistry(m *core.Machine) []Violation {
	if m.Faults == nil {
		return nil
	}
	fs := m.Faults.Stats()
	var out []Violation
	for _, c := range []struct {
		path string
		want uint64
	}{
		{"net/fault/injected_drops", fs.InjectedDrops},
		{"net/fault/corrupted", fs.Corrupted},
		{"net/fault/duplicated", fs.Duplicated},
		{"net/fault/delayed", fs.Delayed},
		{"net/fault/outage_drops", fs.OutageDrops},
		{"net/fault/death_drops", fs.DeathDrops},
	} {
		got, ok := m.Metrics().ReadGauge(c.path)
		if !ok {
			out = append(out, violationf(OracleMetrics, "%s not registered", c.path))
			continue
		}
		if uint64(got) != c.want {
			out = append(out, violationf(OracleMetrics,
				"%s reads %d but the injector counted %d", c.path, got, c.want))
		}
	}
	return out
}

// stallViolation renders a watchdog stall as a finding, enriching the sim
// engine's dump with machine-level context: fabric occupancy and per-node
// queue backlogs — the state a deadlock investigation reaches for first.
func stallViolation(m *core.Machine, se *sim.StallError) Violation {
	se.Notes = append(se.Notes, fmt.Sprintf("fabric: %d packets in flight", fabricInFlight(m)))
	for i, n := range m.Nodes {
		se.Notes = append(se.Notes, fmt.Sprintf(
			"node%d: tx-backlog=%d rx-rel-pending=%d",
			i, n.Ctrl.TxBacklog(),
			n.Ctrl.RxProducer(node.RxRel)-n.Ctrl.RxConsumer(node.RxRel)))
	}
	return violationf(OracleWatchdog, "%v", se)
}
