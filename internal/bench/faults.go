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
	defer m.Close()

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
	defer m.Close()
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
