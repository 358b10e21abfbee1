package bench

import (
	"fmt"

	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/niu/biu"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// ExtDReflective compares the three implementations of reflective memory
// (the paper's §5 Shrimp/Memory Channel emulation): sP firmware, pure aBIU
// hardware, and deferred dirty-line flushing — the hardware/firmware trade
// the platform exists to measure.
func ExtDReflective() *stats.Table {
	t := &stats.Table{
		Title: "Ext D — reflective memory: firmware vs hardware vs deferred",
		Columns: []string{"mode", "word-update lat (us)", "stream (MB/s)",
			"writer-sP busy (us)"},
	}
	for _, mode := range []biu.ReflectMode{biu.ReflectFirmware, biu.ReflectHardware} {
		lat, bw, sp := reflectEager(mode)
		t.AddRow(mode.String(), fmtUs(lat), fmt.Sprintf("%.1f", bw), fmtUs(sp))
	}
	lat, bw, sp := reflectDeferred()
	t.AddRow("deferred+flush", fmtUs(lat), fmt.Sprintf("%.1f", bw), fmtUs(sp))
	return t
}

func reflectRig(mode biu.ReflectMode) *core.Machine {
	cfg := cluster.DefaultConfig(2)
	cfg.ReflectSize = 64 << 10
	m := core.NewMachineConfig(cfg)
	m.API(0).ReflectConfigure(mode, []biu.ReflectEntry{
		{From: 0, To: 64 << 10, Subs: []int{1}}})
	return m
}

// reflectEager measures a one-word update's visibility latency and a
// 16 KB streaming write's bandwidth.
func reflectEager(mode biu.ReflectMode) (lat sim.Time, bw float64, sp sim.Time) {
	m := reflectRig(mode)
	defer m.Close()
	var start sim.Time
	m.Go(0, "writer", func(p *sim.Proc, a *core.API) {
		start = p.Now()
		a.ReflectStoreWord(p, 0, []byte{1, 1, 1, 1, 1, 1, 1, 1})
	})
	m.Go(1, "reader", func(p *sim.Proc, a *core.API) {
		var b [8]byte
		for b[0] == 0 {
			a.ReflectLoadUncached(p, 0, b[:])
		}
		lat = p.Now() - start
	})
	m.Run()

	const size = 16 << 10
	m2 := reflectRig(mode)
	defer m2.Close()
	var dur sim.Time
	m2.Go(0, "writer", func(p *sim.Proc, a *core.API) {
		s := p.Now()
		buf := make([]byte, 256)
		for i := range buf {
			buf[i] = 0xEE
		}
		for off := 0; off < size; off += len(buf) {
			a.ReflectStore(p, uint32(off), buf)
		}
		dur = p.Now() - s
	})
	m2.Run()
	return lat, stats.MBps(size, dur), m2.Nodes[0].FW.BusyTime()
}

// reflectDeferred measures the dirty-tracked variant: writes are free of
// propagation cost; one flush sends only the modified lines.
func reflectDeferred() (lat sim.Time, bw float64, sp sim.Time) {
	m := reflectRig(biu.ReflectDeferred)
	defer m.Close()
	const size = 16 << 10
	var start sim.Time
	var dur sim.Time
	m.Go(0, "writer", func(p *sim.Proc, a *core.API) {
		s := p.Now()
		buf := make([]byte, 256)
		for i := range buf {
			buf[i] = 0xEE
		}
		for off := 0; off < size; off += len(buf) {
			a.ReflectStore(p, uint32(off), buf)
		}
		start = p.Now()
		a.ReflectFlush(p, 0, size, 1)
		a.RecvNotify(p)
		lat = p.Now() - start // flush round trip stands in for update latency
		dur = p.Now() - s
	})
	m.Run()
	return lat, stats.MBps(size, dur), m.Nodes[0].FW.BusyTime()
}
