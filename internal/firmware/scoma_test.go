package firmware_test

import (
	"math/rand"
	"testing"

	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/sim"
)

// TestScomaStepRecordsReturn: once an S-COMA torture of loads, stores and
// evictions from every node has gone quiet, every step record each node's
// protocol handed out is back in its pool. The torture must reach every
// kind of step: it checks that recalls (and so write-backs), invalidations,
// evictions and regrants (grants without data) all ran.
func TestScomaStepRecordsReturn(t *testing.T) {
	const nodes = 4
	for _, migratory := range []bool{false, true} {
		cfg := cluster.DefaultConfig(nodes)
		cfg.ScomaMigratory = migratory
		m := core.NewMachineConfig(cfg)
		for id := 0; id < nodes; id++ {
			rng := rand.New(rand.NewSource(int64(id) + 1))
			m.Go(id, "torture", func(p *sim.Proc, a *core.API) {
				var b [8]byte
				for op := 0; op < 60; op++ {
					a.Compute(p, sim.Time(rng.Intn(3000)))
					// Three lines, on pages homed on nodes 0, 1 and 2.
					off := uint32(rng.Intn(3)) * 4096
					switch rng.Intn(5) {
					case 0, 1:
						b[0]++
						a.ScomaStore(p, off, b[:])
					case 2:
						a.ScomaEvict(p, off, 32)
					default:
						a.ScomaLoad(p, off, b[:])
					}
				}
			})
		}
		m.Run()
		var st struct{ recalls, invals, evicts, regrants uint64 }
		for i, s := range m.Scomas {
			if out := s.StepsOut(); out != 0 {
				t.Errorf("migratory=%v: node %d has %d step records out of its pool at quiescence",
					migratory, i, out)
			}
			x := s.Stats()
			st.recalls += x.Recalls
			st.invals += x.Invals
			st.evicts += x.Evicts
			st.regrants += x.Regrants
		}
		if st.recalls == 0 || st.invals == 0 || st.evicts == 0 || st.regrants == 0 {
			t.Fatalf("migratory=%v: the torture missed a step: %+v", migratory, st)
		}
		m.Close()
	}
}
