// Package bench regenerates the paper's evaluation figures (and this
// reproduction's extension experiments) as printable series. It is shared
// by the root-level Go benchmarks and the voyager-bench command.
package bench

import (
	"fmt"

	"startvoyager/internal/blockxfer"
	"startvoyager/internal/core"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// Fig3Sizes is the transfer-size sweep used for the latency and bandwidth
// figures.
var Fig3Sizes = []int{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10}

// fmtUs renders a sim.Time in microseconds.
func fmtUs(t sim.Time) string { return fmt.Sprintf("%.2f", float64(t)/1000) }

// Fig3Latency reproduces Figure 3: block-transfer latency of approaches 1-3
// versus transfer size.
func Fig3Latency(sizes []int) *stats.Table {
	t := &stats.Table{
		Title:   "Figure 3 — block transfer latency (us)",
		Columns: []string{"size", "approach-1", "approach-2", "approach-3"},
	}
	for _, size := range sizes {
		row := []string{stats.FormatBytes(size)}
		for _, a := range []blockxfer.Approach{blockxfer.A1, blockxfer.A2, blockxfer.A3} {
			row = append(row, fmtUs(blockxfer.Measure(a, size).Latency))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig4Bandwidth reproduces Figure 4: block-transfer bandwidth of approaches
// 1-3 versus transfer size.
func Fig4Bandwidth(sizes []int) *stats.Table {
	t := &stats.Table{
		Title:   "Figure 4 — block transfer bandwidth (MB/s)",
		Columns: []string{"size", "approach-1", "approach-2", "approach-3"},
	}
	for _, size := range sizes {
		row := []string{stats.FormatBytes(size)}
		for _, a := range []blockxfer.Approach{blockxfer.A1, blockxfer.A2, blockxfer.A3} {
			row = append(row, fmt.Sprintf("%.1f", blockxfer.Measure(a, size).Bandwidth))
		}
		t.AddRow(row...)
	}
	return t
}

// ExtAEarlyNotification covers approaches 4 and 5 (described in the paper
// without numbers): notification latency and receiver consume-done time
// against approach 3.
func ExtAEarlyNotification(sizes []int) *stats.Table {
	t := &stats.Table{
		Title: "Ext A — optimistic notification (approaches 4-5): notify / consume-done (us)",
		Columns: []string{"size",
			"a3-notify", "a4-notify", "a5-notify",
			"a3-consume", "a4-consume", "a5-consume"},
	}
	for _, size := range sizes {
		var notify, consume [3]string
		for i, a := range []blockxfer.Approach{blockxfer.A3, blockxfer.A4, blockxfer.A5} {
			m := blockxfer.Measure(a, size)
			notify[i] = fmtUs(m.NotifyAt)
			consume[i] = fmtUs(m.ConsumeDone)
		}
		t.AddRow(stats.FormatBytes(size),
			notify[0], notify[1], notify[2],
			consume[0], consume[1], consume[2])
	}
	return t
}

// ExtBOccupancy reports aP and sP occupancy per approach for one transfer —
// the paper's qualitative claim ("firmware engine occupancy is extremely
// important") made quantitative.
func ExtBOccupancy(size int) *stats.Table {
	t := &stats.Table{
		Title: fmt.Sprintf("Ext B — processor occupancy for one %s transfer (us)",
			stats.FormatBytes(size)),
		Columns: []string{"approach", "aP-src", "aP-dst", "sP-src", "sP-dst", "latency"},
	}
	for _, a := range []blockxfer.Approach{blockxfer.A1, blockxfer.A2, blockxfer.A3,
		blockxfer.A4, blockxfer.A5} {
		m := blockxfer.Measure(a, size)
		t.AddRow(a.String(), fmtUs(m.APSrcBusy), fmtUs(m.APDstBusy),
			fmtUs(m.SPSrcBusy), fmtUs(m.SPDstBusy), fmtUs(m.Latency))
	}
	return t
}

// MechResult is one mechanism microbenchmark outcome.
type MechResult struct {
	Name       string
	OneWay     sim.Time // one-way latency (half round trip)
	Throughput float64  // MB/s streaming payload
	MsgPerSec  float64
}

// ExtCMechanisms characterizes the default communication mechanisms of
// Section 5: one-way latency and streaming throughput for Basic, Express,
// TagOn and DMA, plus NUMA and S-COMA remote access latencies.
func ExtCMechanisms() *stats.Table {
	t := &stats.Table{
		Title:   "Ext C — mechanism microbenchmarks",
		Columns: []string{"mechanism", "one-way (us)", "throughput (MB/s)", "msgs/s"},
	}
	for _, r := range MeasureMechanisms() {
		row := []string{r.Name, fmtUs(r.OneWay), "-", "-"}
		if r.Throughput > 0 {
			row[2] = fmt.Sprintf("%.1f", r.Throughput)
		}
		if r.MsgPerSec > 0 {
			row[3] = fmt.Sprintf("%.0f", r.MsgPerSec)
		}
		t.AddRow(row...)
	}
	return t
}

// MeasureMechanisms runs all mechanism microbenchmarks.
func MeasureMechanisms() []MechResult {
	return []MechResult{
		basicPingPong(),
		expressPingPong(),
		tagonLatency(),
		dmaLatency(),
		numaReadLatency(),
		scomaMissLatency(),
	}
}

// basicPingPong measures Basic messages: latency by ping-pong, throughput by
// streaming 88-byte messages.
func basicPingPong() MechResult {
	const rounds = 20
	m := core.NewMachine(2)
	var rtt sim.Time
	m.Go(0, "ping", func(p *sim.Proc, a *core.API) {
		start := p.Now()
		for i := 0; i < rounds; i++ {
			a.SendBasic(p, 1, []byte{1})
			a.RecvBasic(p)
		}
		rtt = (p.Now() - start) / rounds
	})
	m.Go(1, "pong", func(p *sim.Proc, a *core.API) {
		for i := 0; i < rounds; i++ {
			a.RecvBasic(p)
			a.SendBasic(p, 0, []byte{2})
		}
	})
	m.Run()

	const count = 500
	payload := make([]byte, core.MaxBasicPayload)
	m2 := core.NewMachine(2)
	var dur sim.Time
	m2.Go(0, "src", func(p *sim.Proc, a *core.API) {
		for i := 0; i < count; i++ {
			a.SendBasic(p, 1, payload)
		}
	})
	m2.Go(1, "dst", func(p *sim.Proc, a *core.API) {
		start := p.Now()
		for i := 0; i < count; i++ {
			a.RecvBasic(p)
		}
		dur = p.Now() - start
	})
	m2.Run()
	return MechResult{Name: "basic (88B)", OneWay: rtt / 2,
		Throughput: stats.MBps(count*len(payload), dur),
		MsgPerSec:  float64(count) / float64(dur) * 1e9}
}

func expressPingPong() MechResult {
	const rounds = 20
	m := core.NewMachine(2)
	var rtt sim.Time
	m.Go(0, "ping", func(p *sim.Proc, a *core.API) {
		start := p.Now()
		for i := 0; i < rounds; i++ {
			a.SendExpress(p, 1, []byte{1})
			a.RecvExpress(p)
		}
		rtt = (p.Now() - start) / rounds
	})
	m.Go(1, "pong", func(p *sim.Proc, a *core.API) {
		for i := 0; i < rounds; i++ {
			a.RecvExpress(p)
			a.SendExpress(p, 0, []byte{2})
		}
	})
	m.Run()

	const count = 500
	m2 := core.NewMachine(2)
	var dur sim.Time
	m2.Go(0, "src", func(p *sim.Proc, a *core.API) {
		for i := 0; i < count; i++ {
			a.SendExpress(p, 1, []byte{1, 2, 3, 4, 5})
			// Express queues drop on overflow; pace to the receive rate.
			if i%16 == 15 {
				a.Compute(p, 2*sim.Microsecond)
			}
		}
	})
	got := 0
	m2.Go(1, "dst", func(p *sim.Proc, a *core.API) {
		start := p.Now()
		for got < count {
			if _, _, ok := a.TryRecvExpress(p); ok {
				got++
			}
		}
		dur = p.Now() - start
	})
	m2.Run()
	return MechResult{Name: "express (5B)", OneWay: rtt / 2,
		Throughput: stats.MBps(count*5, dur),
		MsgPerSec:  float64(count) / float64(dur) * 1e9}
}

func tagonLatency() MechResult {
	const rounds = 10
	m := core.NewMachine(2)
	var rtt sim.Time
	tag := make([]byte, 80)
	m.Go(0, "ping", func(p *sim.Proc, a *core.API) {
		a.StageASram(p, 0x8000, tag)
		start := p.Now()
		for i := 0; i < rounds; i++ {
			a.SendTagOn(p, 1, []byte{1}, 0x8000, 80)
			a.RecvBasic(p)
		}
		rtt = (p.Now() - start) / rounds
	})
	m.Go(1, "pong", func(p *sim.Proc, a *core.API) {
		for i := 0; i < rounds; i++ {
			a.RecvBasic(p)
			a.SendBasic(p, 0, []byte{2})
		}
	})
	m.Run()
	return MechResult{Name: "tagon (1+80B)", OneWay: rtt / 2}
}

func dmaLatency() MechResult {
	m := core.NewMachine(2)
	const size = 4096
	m.API(0).Poke(0x10_0000, make([]byte, size))
	var lat sim.Time
	m.Go(0, "src", func(p *sim.Proc, a *core.API) {
		a.DmaPush(p, 1, 0x10_0000, 0x20_0000, size, 1)
	})
	m.Go(1, "dst", func(p *sim.Proc, a *core.API) {
		start := p.Now()
		a.RecvNotify(p)
		lat = p.Now() - start
	})
	m.Run()
	return MechResult{Name: "dma (4KB page)", OneWay: lat,
		Throughput: stats.MBps(size, lat)}
}

func numaReadLatency() MechResult {
	m := core.NewMachine(2)
	var lat sim.Time
	m.Go(0, "rd", func(p *sim.Proc, a *core.API) {
		var b [8]byte
		start := p.Now()
		a.NumaLoad(p, 1<<20, b[:]) // homed on node 1
		lat = p.Now() - start
	})
	m.Run()
	return MechResult{Name: "numa read (8B)", OneWay: lat}
}

func scomaMissLatency() MechResult {
	m := core.NewMachine(2)
	m.Nodes[0].Dram.Poke(8<<20, make([]byte, 4096))
	var lat sim.Time
	m.Go(1, "rd", func(p *sim.Proc, a *core.API) {
		var b [8]byte
		start := p.Now()
		a.ScomaLoad(p, 0, b[:]) // line homed on node 0: full miss
		lat = p.Now() - start
	})
	m.Run()
	return MechResult{Name: "s-coma cold miss (32B line)", OneWay: lat}
}
