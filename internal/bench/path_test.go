package bench

import (
	"strings"
	"testing"

	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/fault"
	"startvoyager/internal/sim"
	"startvoyager/internal/trace"
)

// runMech executes the fixed instrumented workload of one MP mechanism (the
// same probe the headline benchmark uses) and returns the path analysis of
// its trace.
func runMech(t *testing.T, mech string) *trace.PathAnalysis {
	t.Helper()
	return trace.AnalyzePaths(RunMechTraced(mech).Events())
}

// TestPathChainCoverage holds the tentpole's acceptance bar: across every MP
// mechanism, all delivered messages reconstruct into complete stage chains
// (msg-send through a terminal consume/exec with launch, inject, and deliver
// present), with no orphan chains and per-stage sums exactly equal to the
// end-to-end latency.
func TestPathChainCoverage(t *testing.T) {
	for _, mech := range PathMechs {
		t.Run(mech, func(t *testing.T) {
			a := runMech(t, mech)
			if len(a.Msgs) == 0 {
				t.Fatal("no traced messages")
			}
			if a.Orphans != 0 {
				t.Fatalf("%d orphan chains", a.Orphans)
			}
			delivered, dropped, inflight, complete := a.Counts()
			if dropped != 0 {
				t.Fatalf("%d chains dropped on a fault-free run", dropped)
			}
			if inflight != 0 {
				for _, m := range a.Msgs {
					if m.Outcome != trace.Delivered {
						t.Errorf("msg %d dangling: outcome=%v stages=%v", m.ID, m.Outcome, m.Stages)
					}
				}
				t.Fatalf("%d chains still in flight at end of run", inflight)
			}
			if complete != delivered {
				for _, m := range a.Msgs {
					if m.Outcome == trace.Delivered && !m.Complete {
						t.Errorf("msg %d delivered but incomplete: stages=%v", m.ID, m.Stages)
					}
				}
				t.Fatalf("complete=%d delivered=%d", complete, delivered)
			}
			// Telescoping: attributed stage time must equal end-to-end latency
			// exactly, message by message.
			for _, m := range a.Msgs {
				var sum sim.Time
				for _, s := range m.Stages {
					sum += s.Dur
				}
				if sum != m.Total() {
					t.Errorf("msg %d: stage sum %v != total %v", m.ID, sum, m.Total())
				}
			}
		})
	}
}

// TestPathRetransmitAttribution drives R-Basic through a 5% low-lane drop
// plan and checks the causal chains of retransmitted messages: each keeps a
// single identity across attempts, charges the lost attempts and timeout
// gaps to retransmit-penalty, and still ends in exactly one delivery.
// Fault-free chains must show no penalty at all.
func TestPathRetransmitAttribution(t *testing.T) {
	plan := &fault.Plan{Seed: 7}
	plan.Lanes[fault.LaneLow] = fault.LaneProbs{Drop: 0.05}
	cfg := cluster.DefaultConfig(2)
	cfg.Faults = plan
	m := core.NewMachineConfig(cfg)
	tbuf := m.Trace(1 << 19)
	const msgs = 40
	m.Go(0, "src", func(p *sim.Proc, a *core.API) {
		for i := 0; i < msgs; i++ {
			if err := a.SendReliable(p, 1, []byte{byte(i)}); err != nil {
				t.Errorf("SendReliable %d: %v", i, err)
			}
		}
	})
	m.Go(1, "dst", func(p *sim.Proc, a *core.API) {
		for got := 0; got < msgs; got++ {
			if _, _, err := a.RecvReliableTimeout(p, 50*sim.Millisecond); err != nil {
				t.Fatalf("starved at %d: %v", got, err)
			}
		}
	})
	m.Run()
	if d := tbuf.Stats().Dropped; d != 0 {
		t.Fatalf("trace ring dropped %d events", d)
	}
	var retrans uint64
	for _, r := range m.Rels {
		retrans += r.Stats().Retransmits
	}
	if retrans == 0 {
		t.Fatal("fault plan produced no retransmits; test proves nothing")
	}

	a := trace.AnalyzePaths(tbuf.Events())
	retransmitted := 0
	for _, mp := range a.Msgs {
		var sum sim.Time
		for _, s := range mp.Stages {
			sum += s.Dur
		}
		if sum != mp.Total() {
			t.Errorf("msg %d: stage sum %v != total %v", mp.ID, sum, mp.Total())
		}
		if mp.Attempts > 1 {
			retransmitted++
			if mp.Outcome != trace.Delivered {
				t.Errorf("retransmitted msg %d not delivered: %v (%s)", mp.ID, mp.Outcome, mp.DropWhy)
			}
			if !mp.Complete {
				t.Errorf("retransmitted msg %d chain incomplete: %v", mp.ID, mp.Stages)
			}
			if mp.Stage(trace.StageRetransmit) == 0 {
				t.Errorf("retransmitted msg %d shows no retransmit-penalty: %v", mp.ID, mp.Stages)
			}
		} else if mp.Outcome == trace.Delivered && mp.Stage(trace.StageRetransmit) != 0 {
			t.Errorf("single-attempt msg %d charged retransmit-penalty: %v", mp.ID, mp.Stages)
		}
	}
	if retransmitted == 0 {
		t.Fatalf("retransmits=%d but no chain shows attempts>1", retrans)
	}
}

// TestPathWaterfallRenders smoke-checks the report: it must name the core
// pipeline stages and the aggregate attribution block.
func TestPathWaterfallRenders(t *testing.T) {
	a := runMech(t, "basic")
	var b strings.Builder
	if err := a.WriteWaterfall(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"causal path report:", trace.StageTxQueueWait, trace.StageBusTenure,
		trace.StageNetFlight, trace.StageRxQueueWait, "critical-path attribution",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("waterfall missing %q:\n%s", want, out)
		}
	}
}

// TestPathWaterfallHeader pins the attribution header of the run CI's path
// report comes from (two nodes, R-Basic, 8 messages of 32 bytes, a 5% drop
// plan, 41 chains): a Slowest view that drops chains says how many of the
// run's chains it sums, also when cut again, and a view that keeps them all
// (CI asks for -waterfall 100) still says "all chains".
func TestPathWaterfallHeader(t *testing.T) {
	plan, err := fault.ParsePlan("seed=7,drop=0.05")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.DefaultConfig(2)
	cfg.Faults = plan
	m := core.NewMachineConfig(cfg)
	tbuf := m.Trace(1 << 18)
	AllToOne{Mech: "reliable", Count: 8, Size: 32}.Spawn(m)
	m.Run()
	a := trace.AnalyzePaths(tbuf.Events())
	if len(a.Msgs) != 41 {
		t.Fatalf("the run traced %d chains, want 41", len(a.Msgs))
	}
	for _, tc := range []struct {
		view *trace.PathAnalysis
		want string
	}{
		{a.Slowest(3), "critical-path attribution (3 of 41 chains, 36.374us attributed)\n"},
		{a.Slowest(5).Slowest(3), "critical-path attribution (3 of 41 chains, 36.374us attributed)\n"},
		{a.Slowest(100), "critical-path attribution (all chains, 88.348us attributed)\n"},
		{a, "critical-path attribution (all chains, 88.348us attributed)\n"},
	} {
		var b strings.Builder
		if err := tc.view.WriteWaterfall(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), "\n\n"+tc.want) {
			t.Errorf("%d-chain view lacks the header %q:\n%s", len(tc.view.Msgs), tc.want, b.String())
		}
	}
}
