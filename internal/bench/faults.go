package bench

import (
	"fmt"

	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/fault"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// Ext L: what does reliability cost? R-Basic pays for its delivery guarantee
// with sequence/ACK traffic and (under loss) retransmit stalls. The series
// pins that price against the unreliable Basic path on a clean network, then
// walks the drop rate up.

// ExtLDrops is the default drop-rate sweep.
var ExtLDrops = []float64{0, 0.01, 0.05}

// reliableStream pushes msgs reliable messages 0->1 under the given
// low-lane drop rate and reports mean blocking-send latency, delivered
// payload throughput, and the retransmit count.
func reliableStream(msgs int, drop float64) (lat sim.Time, mbps float64, retrans uint64) {
	const payload = 64
	plan := &fault.Plan{Seed: 7}
	plan.Lanes[fault.LaneLow] = fault.LaneProbs{Drop: drop}
	cfg := cluster.DefaultConfig(2)
	cfg.Faults = plan
	m := core.NewMachineConfig(cfg)

	var sendBusy sim.Time
	m.Go(0, "src", func(p *sim.Proc, a *core.API) {
		buf := make([]byte, payload)
		for i := 0; i < msgs; i++ {
			buf[0] = byte(i)
			start := p.Now()
			if err := a.SendReliable(p, 1, buf); err != nil {
				panic(fmt.Sprintf("bench: reliable stream: %v", err))
			}
			sendBusy += p.Now() - start
		}
	})
	got := 0
	m.Go(1, "dst", func(p *sim.Proc, a *core.API) {
		for got < msgs {
			if _, _, err := a.RecvReliableTimeout(p, 50*sim.Millisecond); err != nil {
				panic(fmt.Sprintf("bench: reliable stream starved at %d: %v", got, err))
			}
			got++
		}
	})
	m.Run()

	dur := m.Eng.Now()
	mbps = float64(msgs*payload) / (float64(dur) / float64(sim.Second)) / 1e6
	return sendBusy / sim.Time(msgs), mbps, Recovery(m).Retransmits
}

// basicStream is the unreliable baseline on a clean network: same message
// count and payload through SendBasic/RecvBasic.
func basicStream(msgs int) (lat sim.Time, mbps float64) {
	const payload = 64
	m := core.NewMachine(2)
	var sendBusy sim.Time
	m.Go(0, "src", func(p *sim.Proc, a *core.API) {
		buf := make([]byte, payload)
		for i := 0; i < msgs; i++ {
			buf[0] = byte(i)
			start := p.Now()
			a.SendBasic(p, 1, buf)
			sendBusy += p.Now() - start
		}
	})
	got := 0
	m.Go(1, "dst", func(p *sim.Proc, a *core.API) {
		for got < msgs {
			if _, _, ok := a.TryRecvBasic(p); ok {
				got++
			}
		}
	})
	m.Run()
	dur := m.Eng.Now()
	return sendBusy / sim.Time(msgs), float64(msgs*payload) / (float64(dur) / float64(sim.Second)) / 1e6
}

// ExtLReliability renders the reliability-overhead series: unreliable Basic
// on a clean network, then R-Basic at each drop rate.
func ExtLReliability(msgs int, drops []float64) *stats.Table {
	t := &stats.Table{
		Title:   fmt.Sprintf("Ext L — R-Basic reliability overhead (%d x 64B messages)", msgs),
		Columns: []string{"series", "drop", "send latency (us)", "MB/s", "retransmits"},
	}
	blat, bmbps := basicStream(msgs)
	t.AddRow("basic (unreliable)", "0%", fmtUs(blat), fmt.Sprintf("%.1f", bmbps), "-")
	for _, d := range drops {
		lat, mbps, retrans := reliableStream(msgs, d)
		t.AddRow("reliable", fmt.Sprintf("%g%%", d*100),
			fmtUs(lat), fmt.Sprintf("%.1f", mbps), fmt.Sprint(retrans))
	}
	return t
}

// FaultRun is one fault-matrix cell's machine-level outcome, kept so the CLI
// can dump the full metrics registry as a JSON artifact.
type FaultRun struct {
	Scenario  string
	Seed      uint64
	Delivered int
	Failed    int
	RecoveryStats
	Reg *stats.Registry
	Now sim.Time
}

// faultScenarios are the CI smoke matrix: one plan per injected failure mode.
func faultScenarios(seed uint64) []struct {
	name string
	plan *fault.Plan
} {
	drop := &fault.Plan{Seed: seed}
	drop.Lanes[fault.LaneLow] = fault.LaneProbs{Drop: 0.05}
	corrupt := &fault.Plan{Seed: seed}
	corrupt.Lanes[fault.LaneLow] = fault.LaneProbs{Corrupt: 0.05}
	outage := &fault.Plan{Seed: seed, Outages: []fault.Outage{
		{Src: 1, Dst: 0, From: 20 * sim.Microsecond, To: 200 * sim.Microsecond}}}
	death := &fault.Plan{Seed: seed, Deaths: []fault.NodeDeath{
		{Node: 0, At: 50 * sim.Microsecond}}}
	return []struct {
		name string
		plan *fault.Plan
	}{
		{"drop", drop}, {"corrupt", corrupt}, {"outage", outage}, {"node-death", death},
	}
}

// runFaultScenario pushes msgs reliable messages 1->0 under the plan and
// counts delivered versus failed sends. Node death is expected to fail
// sends; everything else must deliver.
func runFaultScenario(name string, plan *fault.Plan, seed uint64, msgs int) FaultRun {
	cfg := cluster.DefaultConfig(2)
	cfg.Faults = plan
	m := core.NewMachineConfig(cfg)
	d := AllToOne{Mech: "reliable", Count: msgs, Size: 1}.Spawn(m)
	m.Run()
	run := FaultRun{Scenario: name, Seed: seed, Delivered: msgs - d.Failed, Failed: d.Failed,
		RecoveryStats: Recovery(m), Reg: m.Metrics(), Now: m.Eng.Now()}
	m.Close()
	return run
}

// FaultMatrix runs every fault scenario at every seed — the CI smoke that
// the reliability layer holds up across schedules, not just at one lucky
// seed. Returned runs carry the metrics registries for the JSON artifact.
//
// Each (seed, scenario) cell owns a private machine, so cells fan across
// up to workers goroutines (see Cells); rows merge in fixed cell order and
// the table is byte-identical to a sequential run.
func FaultMatrix(msgs int, seeds []uint64, workers int) (*stats.Table, []FaultRun) {
	t := &stats.Table{
		Title: fmt.Sprintf("Fault matrix — %d reliable messages per cell", msgs),
		Columns: []string{"scenario", "seed", "delivered", "failed",
			"retransmits", "dup-suppressed", "rx-garbage", "sim-time (us)"},
	}
	type cell struct {
		name string
		plan *fault.Plan
		seed uint64
	}
	var cells []cell
	for _, seed := range seeds {
		for _, sc := range faultScenarios(seed) {
			cells = append(cells, cell{sc.name, sc.plan, seed})
		}
	}
	runs := Cells(len(cells), workers, func(i int) FaultRun {
		return runFaultScenario(cells[i].name, cells[i].plan, cells[i].seed, msgs)
	})
	for i, run := range runs {
		ok := run.Failed == 0
		if cells[i].name == "node-death" {
			// The dead peer must surface as errors, not hang or succeed.
			ok = run.Failed > 0
		}
		if !ok {
			panic(fmt.Sprintf("bench: fault matrix %s/seed=%d: delivered=%d failed=%d",
				cells[i].name, cells[i].seed, run.Delivered, run.Failed))
		}
		t.AddRow(run.Scenario, fmt.Sprint(run.Seed),
			fmt.Sprint(run.Delivered), fmt.Sprint(run.Failed),
			fmt.Sprint(run.Retransmits), fmt.Sprint(run.DupSuppressed), fmt.Sprint(run.RxGarbage),
			fmtUs(run.Now))
	}
	return t, runs
}
