// Package chaos is the machine-wide robustness harness: a seeded,
// byte-deterministic fuzzer that generates random fault plans over the
// fault.Plan grammar, runs each (mechanism, seed, plan) cell on a private
// machine, and checks the outcome against invariant oracles — exactly-once
// reliable delivery, packet conservation across the fabric and injector,
// end-of-run quiescence, telescoping trace-stage sums, metric sanity, and
// shared-memory linearizability. Runs are driven under a sim-time budget so
// a protocol deadlock or livelock surfaces as a structured watchdog report
// (see sim.StallError) instead of a hung process, and any failing cell can
// be reduced to a minimal reproduction by the shrinker (shrink.go).
//
// Determinism is the contract that makes findings actionable: the same
// Config produces the same Report byte for byte at any worker count, and
// every finding carries its plan in ParsePlan syntax so it replays exactly
// under -faults.
package chaos

import (
	"startvoyager/internal/fault"
	"startvoyager/internal/sim"
)

// Mechanism names accepted in Config.Mechs.
const (
	MechReliable = "reliable" // R-Basic ring: exactly-once under the full fault space
	MechBasic    = "basic"    // unreliable Basic ring: conservation under drops/dups
	MechScoma    = "scoma"    // S-COMA torture: linearizability on a clean network
)

// DefaultMechs is the mechanism rotation used when Config.Mechs is empty.
var DefaultMechs = []string{MechReliable, MechBasic, MechScoma}

// Config parameterizes a chaos sweep.
type Config struct {
	Seed  uint64 // master seed; every cell's plan and workload derive from it
	Cells int    // number of fuzz cells
	Msgs  int    // messages per sender (ops per node for scoma)
	Nodes int    // machine size per cell

	// Mechs is the mechanism rotation across cells (empty = DefaultMechs).
	Mechs []string

	// Workers caps the parallel cell fan-out (see bench.Cells); <= 1 runs
	// sequentially with byte-identical results.
	Workers int

	// Budget bounds each cell's simulated time; 0 derives a per-mechanism
	// bound generous enough that only a genuine livelock exceeds it.
	Budget sim.Time

	// Shrink reduces each failing cell to a minimal reproduction before
	// reporting (costs up to MaxShrinkRuns extra cell runs per failure).
	Shrink bool
	// MaxShrinkRuns bounds the shrinker's re-runs per failing cell (0 = 64).
	MaxShrinkRuns int
}

func (c Config) mechs() []string {
	if len(c.Mechs) == 0 {
		return DefaultMechs
	}
	return c.Mechs
}

func (c Config) maxShrinkRuns() int {
	if c.MaxShrinkRuns <= 0 {
		return 64
	}
	return c.MaxShrinkRuns
}

// planHorizon is the sim-time span GenPlan aims its outage windows and
// deaths into. Workloads keep traffic in flight well past it, so scheduled
// faults land mid-transfer rather than after the run drains.
const planHorizon = 2 * sim.Millisecond

// Cell is one fuzz case: a mechanism workload under a generated fault plan.
// Plan is nil for mechanisms exercised on a clean network (scoma).
type Cell struct {
	Index int
	Mech  string
	Seed  uint64
	Msgs  int
	Plan  *fault.Plan
}

// GenCells expands a Config into its cell list. Cell i's seed is the i-th
// draw of a SplitMix64 stream over the master seed, its mechanism is the
// rotation's i-th entry, and its plan is fault.GenPlan over the cell seed —
// so the whole sweep is a pure function of Config.
func GenCells(cfg Config) []Cell {
	mechs := cfg.mechs()
	cells := make([]Cell, 0, cfg.Cells)
	state := cfg.Seed
	for i := 0; i < cfg.Cells; i++ {
		state = splitmix(state)
		c := Cell{Index: i, Mech: mechs[i%len(mechs)], Seed: state, Msgs: cfg.Msgs}
		switch c.Mech {
		case MechReliable:
			c.Plan = fault.GenPlan(c.Seed, cfg.Nodes, planHorizon)
		case MechBasic:
			// Basic frames carry no checksum, so a corrupted payload is
			// delivered as-is — indistinguishable from an invented message.
			// Keep corruption out of the Basic envelope; the reliable
			// mechanism owns that fault class.
			c.Plan = fault.GenPlan(c.Seed, cfg.Nodes, planHorizon)
			c.Plan.Lanes[fault.LaneHigh].Corrupt = 0
			c.Plan.Lanes[fault.LaneLow].Corrupt = 0
		case MechScoma:
			// Shared-memory consistency is checked on a clean network: the
			// S-COMA protocol has no retransmission story, so injected loss
			// would only report the absence of one, not a bug.
			c.Plan = nil
		}
		cells = append(cells, c)
	}
	return cells
}

// splitmix is the SplitMix64 output function — the same generator the fault
// package uses, so cell seeding is platform-independent.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// srng is a tiny deterministic stream over splitmix, for workload-side
// decisions (op mix, compute gaps) that must not perturb the plan stream.
type srng struct{ state uint64 }

func (r *srng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *srng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}
