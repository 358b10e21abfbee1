package chaos

import (
	"bytes"
	"strings"
	"testing"

	"startvoyager/internal/fault"
	"startvoyager/internal/sim"
)

// TestRunDeterministicAcrossWorkers is the harness's core contract: the same
// Config yields a byte-identical report whether cells run sequentially or
// fanned out across workers. The scoma case runs S-COMA cells alone, whose
// firmware recycles pooled records on every protocol step; `make race` runs
// it under the race detector, which catches a pool shared between machines
// on different workers (every pool must belong to a node).
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		name string
		base Config
	}{
		{"default", Config{Seed: 42, Cells: 6, Msgs: 4, Nodes: 3}},
		{"scoma", Config{Seed: 42, Cells: 4, Msgs: 4, Nodes: 3, Mechs: []string{MechScoma}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq := tc.base
			seq.Workers = 1
			par := tc.base
			par.Workers = 4

			var seqBuf, parBuf bytes.Buffer
			if err := Run(seq).WriteJSON(&seqBuf); err != nil {
				t.Fatalf("sequential report: %v", err)
			}
			if err := Run(par).WriteJSON(&parBuf); err != nil {
				t.Fatalf("parallel report: %v", err)
			}
			if !bytes.Equal(seqBuf.Bytes(), parBuf.Bytes()) {
				t.Errorf("report differs between 1 and 4 workers:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
					seqBuf.String(), parBuf.String())
			}
		})
	}
}

// TestGenCellsDeterministic pins cell derivation: same config, same cells,
// including plan text.
func TestGenCellsDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Cells: 9, Msgs: 3, Nodes: 4}
	a, b := GenCells(cfg), GenCells(cfg)
	if len(a) != len(b) || len(a) != cfg.Cells {
		t.Fatalf("got %d and %d cells, want %d", len(a), len(b), cfg.Cells)
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i].Mech != b[i].Mech || a[i].Seed != b[i].Seed {
			t.Errorf("cell %d differs between derivations: %+v vs %+v", i, a[i], b[i])
		}
		seen[a[i].Mech] = true
		switch {
		case a[i].Plan == nil && b[i].Plan != nil, a[i].Plan != nil && b[i].Plan == nil:
			t.Errorf("cell %d: plan nilness differs", i)
		case a[i].Plan != nil && a[i].Plan.String() != b[i].Plan.String():
			t.Errorf("cell %d: plans differ:\n%s\n%s", i, a[i].Plan, b[i].Plan)
		}
		if a[i].Mech == MechScoma && a[i].Plan != nil {
			t.Errorf("cell %d: scoma must run on a clean network, has plan %s", i, a[i].Plan)
		}
		if a[i].Mech == MechBasic && a[i].Plan != nil {
			if a[i].Plan.Lanes[fault.LaneHigh].Corrupt != 0 || a[i].Plan.Lanes[fault.LaneLow].Corrupt != 0 {
				t.Errorf("cell %d: basic cells must not corrupt (no checksum to catch it)", i)
			}
		}
	}
	for _, mech := range DefaultMechs {
		if !seen[mech] {
			t.Errorf("9-cell default rotation never produced mechanism %q", mech)
		}
	}
}

// TestShrinkReducesToMinimalRepro drives the shrinker with a synthetic
// oracle — "fails iff the plan kills node 1" — over a deliberately bloated
// cell, and expects the full reduction: message count at the floor, every
// irrelevant clause gone, only the culprit death left, within the rerun
// budget.
func TestShrinkReducesToMinimalRepro(t *testing.T) {
	plan, err := fault.ParsePlan(
		"seed=9, drop=0.2, corrupt=0.1, dup=0.1, delay=0.3@50us, " +
			"outage=0-1@10us:100us, outage=*-2@200us:800us, outage=1-*@1ms:1500us, " +
			"death=1@400us, death=2@900us")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	cell := Cell{Index: 0, Mech: MechReliable, Seed: 9, Msgs: 16, Plan: plan}
	cfg := Config{Nodes: 3}

	const oracle = "synthetic"
	rerun := func(c Cell) []Violation {
		if c.Plan == nil {
			return nil
		}
		for _, d := range c.Plan.Deaths {
			if d.Node == 1 {
				return []Violation{{Oracle: oracle, Detail: "node 1 died"}}
			}
		}
		return nil
	}

	got, runs := Shrink(cell, cfg, oracle, rerun)
	if runs > cfg.maxShrinkRuns() {
		t.Errorf("shrinker spent %d reruns, budget is %d", runs, cfg.maxShrinkRuns())
	}
	if got.Msgs != 1 {
		t.Errorf("Msgs = %d, want 1 (workload size is irrelevant to the oracle)", got.Msgs)
	}
	if got.Plan == nil {
		t.Fatal("shrunk plan is nil but the oracle needs the death clause")
	}
	if len(got.Plan.Deaths) != 1 || got.Plan.Deaths[0].Node != 1 {
		t.Errorf("deaths = %+v, want exactly the node-1 death", got.Plan.Deaths)
	}
	if len(got.Plan.Outages) != 0 {
		t.Errorf("outages = %+v, want none (all irrelevant)", got.Plan.Outages)
	}
	for ln := range got.Plan.Lanes {
		l := got.Plan.Lanes[ln]
		if l.Drop != 0 || l.Corrupt != 0 || l.Duplicate != 0 || l.DelayProb != 0 {
			t.Errorf("lane %v still has probabilistic faults: %+v", ln, l)
		}
	}
	// The original cell must be untouched: the shrinker works on clones.
	if len(cell.Plan.Outages) != 3 || len(cell.Plan.Deaths) != 2 || cell.Msgs != 16 {
		t.Errorf("shrinker mutated the input cell: %+v", cell)
	}
}

// TestShrinkRespectsRunBudget caps the rerun budget below what full
// reduction needs and checks the shrinker stops on time anyway.
func TestShrinkRespectsRunBudget(t *testing.T) {
	plan := fault.GenPlan(123, 4, 2*sim.Millisecond)
	cell := Cell{Mech: MechReliable, Seed: 123, Msgs: 64, Plan: plan}
	cfg := Config{Nodes: 4, MaxShrinkRuns: 3}
	rerun := func(Cell) []Violation {
		return []Violation{{Oracle: "always", Detail: "fails"}}
	}
	_, runs := Shrink(cell, cfg, "always", rerun)
	if runs > 3 {
		t.Errorf("shrinker spent %d reruns with a budget of 3", runs)
	}
}

// TestWatchdogFiresOnTinyBudget gives a real reliable cell far too little
// simulated time and expects a structured watchdog finding — the harness's
// answer to a hang — rather than a wedged test.
func TestWatchdogFiresOnTinyBudget(t *testing.T) {
	cfg := Config{Nodes: 3, Budget: 20 * sim.Microsecond}
	cell := Cell{Index: 0, Mech: MechReliable, Seed: 5, Msgs: 32}
	res := RunCell(cell, cfg)
	var found *Violation
	for i := range res.Violations {
		if res.Violations[i].Oracle == OracleWatchdog {
			found = &res.Violations[i]
			break
		}
	}
	if found == nil {
		t.Fatalf("no watchdog violation in %+v", res.Violations)
	}
	if !strings.Contains(found.Detail, "fabric:") {
		t.Errorf("watchdog detail lacks the machine-context notes:\n%s", found.Detail)
	}
}

// TestCleanSweepHasNoFindings runs a default-configuration sweep and expects
// the machine to survive it clean — this is the committed-baseline property
// make chaos enforces in CI.
func TestCleanSweepHasNoFindings(t *testing.T) {
	rep := Run(Config{Seed: 1, Cells: 6, Msgs: 4, Nodes: 3, Workers: 2})
	for _, f := range rep.Findings {
		t.Errorf("cell %d (%s, seed %#x, plan %q): %s oracle: %s",
			f.Cell, f.Mech, f.Seed, f.Plan, f.Oracle, f.Detail)
	}
	if rep.Schema != Schema {
		t.Errorf("schema = %q, want %q", rep.Schema, Schema)
	}
}
