package chaos

import (
	"encoding/binary"
	"fmt"

	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/memcheck"
	"startvoyager/internal/node"
	"startvoyager/internal/sim"
)

// CellResult is one cell's verdict: the violations its oracles found (empty
// = clean) and how much simulated time the run consumed.
type CellResult struct {
	Cell       Cell
	Violations []Violation
	SimTime    sim.Time
}

// RunCell executes one fuzz cell on a private machine and runs every oracle
// that applies to its mechanism. It is a pure function of (Cell, Config) —
// the property the determinism guarantee and the shrinker both rest on.
func RunCell(c Cell, cfg Config) CellResult {
	switch c.Mech {
	case MechReliable:
		return runReliable(c, cfg)
	case MechBasic:
		return runBasic(c, cfg)
	case MechScoma:
		return runScoma(c, cfg)
	default:
		panic(fmt.Sprintf("chaos: unknown mechanism %q", c.Mech))
	}
}

// budgetSlices is how many budget slices a cell samples its metrics at for
// the monotone-counter oracle.
const budgetSlices = 8

// runSlices drives the engine to now+budget in budgetSlices slices, sampling
// the monotone watch between slices, then applies the watchdog's BudgetCheck
// with the machine's firmware loops as the expected-live count.
func runSlices(m *core.Machine, budget sim.Time) (*sim.StallError, []Violation) {
	var out []Violation
	w := newMonotoneWatch(m)
	out = append(out, w.sample()...)
	end := m.Eng.Now() + budget
	for i := 1; i <= budgetSlices; i++ {
		m.Eng.RunUntil(m.Eng.Now() + budget/budgetSlices)
		out = append(out, w.sample()...)
	}
	m.Eng.RunUntil(end) // mop up slice rounding
	return m.Eng.BudgetCheck(budget, m.FirmwareLoops()), out
}

// payload encoding shared by the ring workloads: [src:2][idx:2].
func ringPayload(b []byte, src, idx int) []byte {
	binary.BigEndian.PutUint16(b[0:], uint16(src))
	binary.BigEndian.PutUint16(b[2:], uint16(idx))
	return b[:4]
}

// recvTally accumulates one receiver's view: per-sender-index delivery
// counts plus anything malformed or from the wrong origin.
type recvTally struct {
	counts []int
	bad    []string
}

func (t *recvTally) record(self, up, src int, pl []byte) {
	if src != up || len(pl) != 4 {
		t.bad = append(t.bad, fmt.Sprintf(
			"node %d consumed %d bytes claiming src %d (upstream is %d)", self, len(pl), src, up))
		return
	}
	payloadSrc := int(binary.BigEndian.Uint16(pl[0:]))
	idx := int(binary.BigEndian.Uint16(pl[2:]))
	if payloadSrc != up || idx < 0 || idx >= len(t.counts) {
		t.bad = append(t.bad, fmt.Sprintf(
			"node %d consumed payload (src %d, idx %d) nobody sent", self, payloadSrc, idx))
		return
	}
	t.counts[idx]++
}

// runReliable exercises R-Basic on a ring under the full fault space: every
// node streams Msgs reliable messages to its successor while draining its
// own inbox. The central invariant is exactly-once: an acknowledged send is
// delivered exactly once, a failed send at most once, and nothing else
// appears. ACKs precede send statuses in the protocol, so once a sender has
// its last status, every acknowledged payload is already queued at the
// receiver — the drain below misses nothing.
func runReliable(c Cell, cfg Config) CellResult {
	nodes := cfg.Nodes
	clcfg := cluster.DefaultConfig(nodes)
	clcfg.Faults = c.Plan
	m := core.NewMachineConfig(clcfg)
	defer m.Close()
	tap := attachLifecycleTap(m.Eng)

	sent := make([][]bool, nodes) // sent[i][k]: send k by node i acknowledged
	senderDone := make([]bool, nodes)
	tallies := make([]recvTally, nodes)
	for i := range tallies {
		sent[i] = make([]bool, c.Msgs)
		tallies[i].counts = make([]int, c.Msgs)
	}

	for i := 0; i < nodes; i++ {
		i := i
		dst := (i + 1) % nodes
		up := (i + nodes - 1) % nodes
		m.Go(i, "chaos-src", func(p *sim.Proc, a *core.API) {
			var b [4]byte
			for k := 0; k < c.Msgs; k++ {
				sent[i][k] = a.SendReliable(p, dst, ringPayload(b[:], i, k)) == nil
			}
			senderDone[i] = true
		})
		m.Go(i, "chaos-dst", func(p *sim.Proc, a *core.API) {
			for {
				src, pl, err := a.RecvReliableTimeout(p, m.RelBound())
				if err == nil {
					tallies[i].record(i, up, src, pl)
					continue
				}
				if !senderDone[up] {
					continue
				}
				// The upstream sender has its final status, so everything
				// acknowledged is already queued locally: drain and leave.
				for {
					src, pl, ok := a.TryRecvReliable(p)
					if !ok {
						return
					}
					tallies[i].record(i, up, src, pl)
				}
			}
		})
	}

	budget := cfg.Budget
	if budget == 0 {
		// Each send resolves within 2*RelBound (the library's own status
		// timeout); the receiver trails by a few poll windows.
		budget = sim.Time(2*c.Msgs+8)*m.RelBound() + sim.Millisecond
	}
	stall, violations := runSlices(m, budget)
	res := CellResult{Cell: c, Violations: violations, SimTime: m.Eng.Now()}
	if stall != nil {
		res.Violations = append(res.Violations, stallViolation(m, stall))
		return res
	}

	failedTotal := 0
	for i := range sent {
		for k, ok := range sent[i] {
			if !ok {
				failedTotal++
			}
			recv := tallies[(i+1)%nodes]
			switch n := recv.counts[k]; {
			case n > 1:
				res.Violations = append(res.Violations, violationf(OracleExactlyOnce,
					"send %d->%d idx %d delivered %d times", i, (i+1)%nodes, k, n))
			case n == 0 && ok:
				res.Violations = append(res.Violations, violationf(OracleExactlyOnce,
					"send %d->%d idx %d was acknowledged but never delivered", i, (i+1)%nodes, k))
			}
		}
	}
	for i := range tallies {
		for _, bad := range tallies[i].bad {
			res.Violations = append(res.Violations, violationf(OracleInvention, "%s", bad))
		}
	}
	res.Violations = append(res.Violations, checkConservation(m)...)
	res.Violations = append(res.Violations, checkQuiescence(m, failedTotal)...)
	res.Violations = append(res.Violations, checkInjectorRegistry(m)...)
	res.Violations = append(res.Violations, checkTelescoping(tap)...)
	return res
}

// basicSilence is how long a Basic receiver must hear nothing — after its
// upstream sender finished — before concluding the network has drained. It
// comfortably exceeds the injector's largest delay (100us) plus flight time.
const basicSilence = sim.Millisecond

// runBasic exercises the unreliable Basic path on a ring. Basic promises no
// delivery, so the invariants are conservation ones: nothing is invented
// (every consumed payload was sent by the upstream node), duplication is
// bounded by the injector's count, and the app-level ledger balances —
// every injected frame is consumed, still queued, or accounted to a fault.
func runBasic(c Cell, cfg Config) CellResult {
	nodes := cfg.Nodes
	clcfg := cluster.DefaultConfig(nodes)
	clcfg.Faults = c.Plan
	m := core.NewMachineConfig(clcfg)
	defer m.Close()
	tap := attachLifecycleTap(m.Eng)

	senderDone := make([]bool, nodes)
	tallies := make([]recvTally, nodes)
	for i := range tallies {
		tallies[i].counts = make([]int, c.Msgs)
	}

	for i := 0; i < nodes; i++ {
		i := i
		dst := (i + 1) % nodes
		up := (i + nodes - 1) % nodes
		m.Go(i, "chaos-src", func(p *sim.Proc, a *core.API) {
			var b [4]byte
			for k := 0; k < c.Msgs; k++ {
				a.SendBasic(p, dst, ringPayload(b[:], i, k))
			}
			senderDone[i] = true
		})
		m.Go(i, "chaos-dst", func(p *sim.Proc, a *core.API) {
			// Return only after a full silence window that began after the
			// upstream sender finished: anything still in flight (delays are
			// bounded) lands well inside it, so leftovers mean a real leak.
			armed := false
			for {
				src, pl, err := a.RecvBasicTimeout(p, basicSilence)
				if err == nil {
					tallies[i].record(i, up, src, pl)
					armed = false
					continue
				}
				if !senderDone[up] {
					continue
				}
				if armed {
					return
				}
				armed = true
			}
		})
	}

	budget := cfg.Budget
	if budget == 0 {
		budget = sim.Time(c.Msgs)*200*sim.Microsecond + 10*sim.Millisecond
	}
	stall, violations := runSlices(m, budget)
	res := CellResult{Cell: c, Violations: violations, SimTime: m.Eng.Now()}
	if stall != nil {
		res.Violations = append(res.Violations, stallViolation(m, stall))
		return res
	}

	consumed, extras := 0, 0
	for i := range tallies {
		for _, n := range tallies[i].counts {
			consumed += n
			if n > 1 {
				extras += n - 1
			}
		}
		for _, bad := range tallies[i].bad {
			res.Violations = append(res.Violations, violationf(OracleInvention, "%s", bad))
		}
	}
	var dup uint64
	if m.Faults != nil {
		dup = m.Faults.Stats().Duplicated
	}
	if uint64(extras) > dup {
		res.Violations = append(res.Violations, violationf(OracleInvention,
			"receivers saw %d duplicate deliveries but the injector duplicated only %d", extras, dup))
	}
	// App-level ledger: everything the fabric delivered was either consumed
	// by a receiver or is still sitting in an RX queue (which, after the
	// silence windows, must be nothing).
	leftover := 0
	for _, n := range m.Nodes {
		leftover += int(n.Ctrl.RxProducer(node.RxBasic) - n.Ctrl.RxConsumer(node.RxBasic))
	}
	if leftover != 0 {
		res.Violations = append(res.Violations, violationf(OracleQuiescence,
			"%d Basic payloads left unconsumed after the silence window", leftover))
	}
	res.Violations = append(res.Violations, checkBasicLedger(m, nodes*c.Msgs, consumed+leftover)...)
	res.Violations = append(res.Violations, checkConservation(m)...)
	res.Violations = append(res.Violations, checkQuiescence(m, 0)...)
	res.Violations = append(res.Violations, checkInjectorRegistry(m)...)
	res.Violations = append(res.Violations, checkTelescoping(tap)...)
	return res
}

// runScoma tortures the S-COMA directory protocol: every node hammers one
// shared location with an unsynchronized read/write mix (the last node is a
// pure reader), and the observed history must be linearizable. The network
// is clean by construction (see GenCells), so any violation is the
// coherence protocol's own.
func runScoma(c Cell, cfg Config) CellResult {
	nodes := cfg.Nodes
	m := core.NewMachineConfig(cluster.DefaultConfig(nodes))
	defer m.Close()
	tap := attachLifecycleTap(m.Eng)

	var h memcheck.History
	for id := 0; id < nodes; id++ {
		id := id
		// Each node's op mix and compute gaps come from a stream of its own.
		r := sim.NewSplitMix64(c.Seed ^ (uint64(id)+1)*0x9E3779B97F4A7C15)
		m.Go(id, "chaos-torture", func(p *sim.Proc, a *core.API) {
			for op := 0; op < c.Msgs; op++ {
				a.Compute(p, sim.Time(r.Intn(5))*sim.Microsecond)
				if r.Intn(2) == 0 && id != nodes-1 {
					val := uint64(id+1)<<32 | uint64(op+1)
					var b [8]byte
					binary.BigEndian.PutUint64(b[:], val)
					start := p.Now()
					a.ScomaStore(p, 0, b[:])
					h.AddWrite(id, val, start, p.Now())
				} else {
					var b [8]byte
					start := p.Now()
					a.ScomaLoad(p, 0, b[:])
					h.AddRead(id, binary.BigEndian.Uint64(b[:]), start, p.Now())
				}
			}
		})
	}

	budget := cfg.Budget
	if budget == 0 {
		budget = sim.Time(c.Msgs*nodes)*100*sim.Microsecond + 10*sim.Millisecond
	}
	stall, violations := runSlices(m, budget)
	res := CellResult{Cell: c, Violations: violations, SimTime: m.Eng.Now()}
	if stall != nil {
		res.Violations = append(res.Violations, stallViolation(m, stall))
		return res
	}
	if err := h.Check(0); err != nil {
		res.Violations = append(res.Violations, violationf(OracleMemcheck,
			"%v (history of %d ops)", err, h.Len()))
	}
	res.Violations = append(res.Violations, checkConservation(m)...)
	res.Violations = append(res.Violations, checkQuiescence(m, 0)...)
	res.Violations = append(res.Violations, checkTelescoping(tap)...)
	return res
}
