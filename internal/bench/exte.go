package bench

import (
	"fmt"

	"startvoyager/internal/core"
	"startvoyager/internal/mpi"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// ExtEQueueCaching measures the receive-queue-caching design: one-way
// message latency to a hardware-resident logical queue versus a
// non-resident one that CTRL diverts to the miss queue and firmware writes
// to its DRAM home — the cost of "selectively caching queues".
func ExtEQueueCaching() *stats.Table {
	t := &stats.Table{
		Title:   "Ext E — receive queue caching: resident vs non-resident delivery",
		Columns: []string{"destination queue", "one-way latency (us)", "sP busy (us)"},
	}

	// Resident: the standard Basic queue.
	m := core.NewMachine(2)
	defer m.Close()
	var lat sim.Time
	var start sim.Time
	m.Go(0, "s", func(p *sim.Proc, a *core.API) {
		start = p.Now()
		a.SendBasic(p, 1, []byte("r"))
	})
	m.Go(1, "r", func(p *sim.Proc, a *core.API) {
		a.RecvBasic(p)
		lat = p.Now() - start
	})
	m.Run()
	t.AddRow("resident (hardware queue)", fmtUs(lat), fmtUs(m.Nodes[1].FW.BusyTime()))

	// Non-resident: diverted to the miss queue, serviced into DRAM.
	m2 := core.NewMachine(2)
	defer m2.Close()
	m2.API(0).MapVirtualDest(core.TransUser, 1, 4321)
	var lat2 sim.Time
	m2.Go(0, "s", func(p *sim.Proc, a *core.API) {
		start = p.Now()
		a.SendVirtual(p, core.TransUser, []byte("n"))
	})
	m2.Go(1, "r", func(p *sim.Proc, a *core.API) {
		a.RecvOverflow(p)
		lat2 = p.Now() - start
	})
	m2.Run()
	t.AddRow("non-resident (DRAM via miss queue)", fmtUs(lat2), fmtUs(m2.Nodes[1].FW.BusyTime()))
	return t
}

// ExtFCollectives measures MPI collective completion time versus machine
// size — the kind of whole-system workload study the platform targets.
func ExtFCollectives(nodeCounts []int) *stats.Table {
	t := &stats.Table{
		Title:   "Ext F — MPI collectives on the fat tree (completion, us)",
		Columns: []string{"nodes", "barrier", "bcast 1KB", "allreduce 8B", "alltoall 64B"},
	}
	for _, n := range nodeCounts {
		bar := collectiveTime(n, func(p *sim.Proc, c *mpi.Comm) { c.Barrier(p) })
		bc := collectiveTime(n, func(p *sim.Proc, c *mpi.Comm) {
			var data []byte
			if c.Rank() == 0 {
				data = make([]byte, 1024)
			}
			c.Bcast(p, 0, data)
		})
		ar := collectiveTime(n, func(p *sim.Proc, c *mpi.Comm) {
			c.Allreduce(p, mpi.Sum, []float64{1})
		})
		aa := collectiveTime(n, func(p *sim.Proc, c *mpi.Comm) {
			parts := make([][]byte, c.Size())
			for i := range parts {
				parts[i] = make([]byte, 64)
			}
			c.Alltoall(p, parts)
		})
		t.AddRow(fmt.Sprint(n), fmtUs(bar), fmtUs(bc), fmtUs(ar), fmtUs(aa))
	}
	return t
}

// collectiveTime runs body on every rank and returns the time from start to
// the last rank's completion.
func collectiveTime(n int, body func(p *sim.Proc, c *mpi.Comm)) sim.Time {
	m := core.NewMachine(n)
	defer m.Close()
	var last sim.Time
	for r := 0; r < n; r++ {
		c := mpi.World(m, r)
		m.Go(r, "rank", func(p *sim.Proc, _ *core.API) {
			body(p, c)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	m.Run()
	return last
}
