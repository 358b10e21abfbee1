package core

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"startvoyager/internal/cluster"
	"startvoyager/internal/memcheck"
	"startvoyager/internal/sim"
)

// TestScomaLinearizability tortures the S-COMA directory protocol with
// unsynchronized concurrent reads and writes to one line from every node
// and validates the observed history against the atomic-register
// consistency conditions (internal/memcheck). The accesses come densely
// enough that a store slipping into a recall's window is caught: an owner
// that reads the recalled line before revoking its write permission (the
// ordering onRecall's comment warns of) fails every run.
func TestScomaLinearizability(t *testing.T) {
	for _, migratory := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			m := NewMachine(4)
			if migratory {
				// Rebuild with the protocol variant.
				cfg := cluster.DefaultConfig(4)
				cfg.ScomaMigratory = true
				m = NewMachineConfig(cfg)
			}
			var h memcheck.History
			for id := 0; id < 4; id++ {
				id := id
				rng := rand.New(rand.NewSource(seed*100 + int64(id)))
				m.Go(id, "torture", func(p *sim.Proc, a *API) {
					for op := 0; op < 40; op++ {
						a.Compute(p, sim.Time(rng.Intn(1500)))
						if rng.Intn(2) == 0 && id != 3 { // node 3: pure reader
							val := uint64(id+1)<<32 | uint64(op+1)
							var b [8]byte
							binary.BigEndian.PutUint64(b[:], val)
							start := p.Now()
							a.ScomaStore(p, 0, b[:])
							h.AddWrite(id, val, start, p.Now())
						} else {
							var b [8]byte
							start := p.Now()
							a.ScomaLoad(p, 0, b[:])
							h.AddRead(id, binary.BigEndian.Uint64(b[:]), start, p.Now())
						}
					}
				})
			}
			m.Run()
			if err := h.Check(0); err != nil {
				t.Fatalf("migratory=%v seed=%d: %v (history of %d ops)",
					migratory, seed, err, h.Len())
			}
		}
	}
}

// TestNumaLinearizability applies the same checker to the NUMA window
// (uncached remote access through firmware).
func TestNumaLinearizability(t *testing.T) {
	m := NewMachine(3)
	var h memcheck.History
	// Offset homed on node 0.
	for id := 0; id < 3; id++ {
		id := id
		rng := rand.New(rand.NewSource(int64(id) + 9))
		m.Go(id, "torture", func(p *sim.Proc, a *API) {
			for op := 0; op < 10; op++ {
				a.Compute(p, sim.Time(rng.Intn(4000)))
				if rng.Intn(2) == 0 {
					val := uint64(id+1)<<32 | uint64(op+1)
					var b [8]byte
					binary.BigEndian.PutUint64(b[:], val)
					start := p.Now()
					a.NumaStore(p, 0x40, b[:])
					h.AddWrite(id, val, start, p.Now())
				} else {
					var b [8]byte
					start := p.Now()
					a.NumaLoad(p, 0x40, b[:])
					h.AddRead(id, binary.BigEndian.Uint64(b[:]), start, p.Now())
				}
			}
		})
	}
	m.Run()
	if err := h.Check(0); err != nil {
		t.Fatalf("%v (history of %d ops)", err, h.Len())
	}
}
