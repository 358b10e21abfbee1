package bench

import (
	"encoding/binary"
	"fmt"
	"math"

	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/mpi"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// ExtKProtocolVariants compares two S-COMA coherence protocols on identical
// hardware — the base MSI directory versus the migratory-sharing variant —
// on a producer/consumer counter that migrates between two nodes. Protocol
// experimentation "while keeping all other parameters constant" is the
// paper's whole program.
func ExtKProtocolVariants() *stats.Table {
	t := &stats.Table{
		Title:   "Ext K — S-COMA protocol variants: migrating counter (16 handoffs)",
		Columns: []string{"protocol", "time (us)", "Get", "GetX", "recalls", "invals"},
	}
	for _, mig := range []bool{false, true} {
		name := "base MSI"
		if mig {
			name = "MSI + migratory"
		}
		dur, st := migratingCounter(mig)
		t.AddRow(name, fmtUs(dur),
			fmt.Sprint(st.Gets), fmt.Sprint(st.GetXs),
			fmt.Sprint(st.Recalls), fmt.Sprint(st.Invals))
	}
	return t
}

func migratingCounter(migratory bool) (sim.Time, scomaStats) {
	cfg := cluster.DefaultConfig(2)
	cfg.ScomaMigratory = migratory
	m := core.NewMachineConfig(cfg)
	defer m.Close()
	m.Nodes[0].Dram.Poke(8<<20, []byte{0})
	const rounds = 8
	incr := func(p *sim.Proc, a *core.API) {
		var b [1]byte
		a.ScomaLoad(p, 0, b[:])
		b[0]++
		a.ScomaStore(p, 0, b[:])
	}
	m.Go(0, "w0", func(p *sim.Proc, a *core.API) {
		for i := 0; i < rounds; i++ {
			incr(p, a)
			a.SendBasic(p, 1, []byte{1})
			a.RecvBasic(p)
		}
	})
	m.Go(1, "w1", func(p *sim.Proc, a *core.API) {
		for i := 0; i < rounds; i++ {
			a.RecvBasic(p)
			incr(p, a)
			a.SendBasic(p, 0, []byte{1})
		}
	})
	m.Run()
	st := m.Scomas[0].Stats()
	return m.Eng.Now(), scomaStats{st.Gets, st.GetXs, st.Recalls, st.Invals}
}

type scomaStats struct {
	Gets, GetXs, Recalls, Invals uint64
}

// ExtKStencil runs the same 1-D Jacobi stencil two ways on the same
// machine: halo exchange over MPI messages versus S-COMA shared memory —
// the apples-to-apples mechanism comparison the NIU exists to enable.
func ExtKStencil(cells, iters, nodes int) *stats.Table {
	t := &stats.Table{
		Title: fmt.Sprintf("Ext K — 1-D stencil (%d cells x %d iters, %d nodes): MP vs SM",
			cells, iters, nodes),
		Columns: []string{"paradigm", "time (us)", "messages", "max aP util"},
	}
	dur, msgs, util := stencilMP(cells, iters, nodes)
	t.AddRow("message passing (MPI halo)", fmtUs(dur), fmt.Sprint(msgs),
		fmt.Sprintf("%.0f%%", util*100))
	dur, msgs, util = stencilSM(cells, iters, nodes)
	t.AddRow("shared memory (S-COMA)", fmtUs(dur), fmt.Sprint(msgs),
		fmt.Sprintf("%.0f%%", util*100))
	return t
}

// stencilMP: each rank keeps its strip locally and exchanges one halo cell
// with each neighbour per iteration.
func stencilMP(cells, iters, nodes int) (sim.Time, uint64, float64) {
	m := core.NewMachine(nodes)
	defer m.Close()
	per := cells / nodes
	for r := 0; r < nodes; r++ {
		r := r
		c := mpi.World(m, r)
		m.Go(r, "mp", func(p *sim.Proc, a *core.API) {
			strip := make([]float64, per+2) // with halo cells
			if r == nodes/2 {
				strip[1] = 100 // the hot spike
			}
			enc := func(v float64) []byte {
				var b [8]byte
				binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
				return b[:]
			}
			dec := func(b []byte) float64 {
				return math.Float64frombits(binary.BigEndian.Uint64(b))
			}
			for it := 0; it < iters; it++ {
				if r > 0 {
					c.Send(p, r-1, 1, enc(strip[1]))
				}
				if r < nodes-1 {
					c.Send(p, r+1, 2, enc(strip[per]))
				}
				if r > 0 {
					d, _ := c.Recv(p, r-1, 2)
					strip[0] = dec(d)
				}
				if r < nodes-1 {
					d, _ := c.Recv(p, r+1, 1)
					strip[per+1] = dec(d)
				}
				next := make([]float64, per+2)
				for i := 1; i <= per; i++ {
					next[i] = 0.25*strip[i-1] + 0.5*strip[i] + 0.25*strip[i+1]
				}
				a.Compute(p, sim.Time(per)*30) // the arithmetic
				copy(strip, next)
				c.Barrier(p)
			}
		})
	}
	m.Run()
	var msgs uint64
	var util float64
	for _, n := range m.Nodes {
		msgs += n.Ctrl.Stats().TxMessages
		if u := n.APMeter.Utilization(0, m.Eng.Now()); u > util {
			util = u
		}
	}
	return m.Eng.Now(), msgs, util
}

// stencilSM: the whole array lives in the S-COMA space; each node reads its
// neighbours' boundary cells through the coherence protocol.
func stencilSM(cells, iters, nodes int) (sim.Time, uint64, float64) {
	m := core.NewMachine(nodes)
	defer m.Close()
	per := cells / nodes
	bufA, bufB := uint32(0), uint32(64<<10)
	cell := func(buf uint32, i int) uint32 { return buf + uint32(i)*8 }
	for r := 0; r < nodes; r++ {
		r := r
		c := mpi.World(m, r) // barriers only
		m.Go(r, "sm", func(p *sim.Proc, a *core.API) {
			if r == 0 {
				var b [8]byte
				binary.BigEndian.PutUint64(b[:], math.Float64bits(100))
				a.ScomaStore(p, cell(bufA, cells/2), b[:])
			}
			c.Barrier(p)
			cur, nxt := bufA, bufB
			lo, hi := r*per, (r+1)*per
			for it := 0; it < iters; it++ {
				for i := lo; i < hi; i++ {
					if i == 0 || i == cells-1 {
						continue
					}
					var l, mid, rt [8]byte
					a.ScomaLoad(p, cell(cur, i-1), l[:])
					a.ScomaLoad(p, cell(cur, i), mid[:])
					a.ScomaLoad(p, cell(cur, i+1), rt[:])
					v := 0.25*math.Float64frombits(binary.BigEndian.Uint64(l[:])) +
						0.5*math.Float64frombits(binary.BigEndian.Uint64(mid[:])) +
						0.25*math.Float64frombits(binary.BigEndian.Uint64(rt[:]))
					var out [8]byte
					binary.BigEndian.PutUint64(out[:], math.Float64bits(v))
					a.ScomaStore(p, cell(nxt, i), out[:])
				}
				a.Compute(p, sim.Time(per)*30)
				c.Barrier(p)
				cur, nxt = nxt, cur
			}
		})
	}
	m.Run()
	var msgs uint64
	var util float64
	for _, n := range m.Nodes {
		msgs += n.Ctrl.Stats().TxMessages
		if u := n.APMeter.Utilization(0, m.Eng.Now()); u > util {
			util = u
		}
	}
	return m.Eng.Now(), msgs, util
}
