// Samplesort runs a complete parallel application — sample sort of 8,000
// keys across 8 nodes — over the simulated machine's MPI library, the kind
// of "entire system workload" study the paper says the platform exists to
// run. The result is verified against a sequential sort, and per-node NIU
// statistics show what the hardware did underneath.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"startvoyager/internal/core"
	"startvoyager/internal/mpi"
	"startvoyager/internal/sim"
	"startvoyager/internal/workload"
)

const (
	nodes   = 8
	perRank = 1000
)

func main() {
	rng := rand.New(rand.NewSource(42))
	input := make([][]uint32, nodes)
	var all []uint32
	for r := range input {
		input[r] = make([]uint32, perRank)
		for i := range input[r] {
			input[r][i] = rng.Uint32() % 1_000_000
			all = append(all, input[r][i])
		}
	}
	want := append([]uint32(nil), all...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	m := core.NewMachine(nodes)
	sorted := make([][]uint32, nodes)
	for r := 0; r < nodes; r++ {
		r := r
		c := mpi.World(m, r)
		m.Go(r, "sort", func(p *sim.Proc, a *core.API) {
			sorted[r] = workload.Samplesort(p, a, c, input[r])
		})
	}
	m.Run()

	// Verify: concatenation equals the sequential sort.
	var got []uint32
	for _, s := range sorted {
		got = append(got, s...)
	}
	if len(got) != len(want) {
		log.Fatalf("lost keys: %d of %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			log.Fatalf("mismatch at %d: %d != %d", i, got[i], want[i])
		}
	}
	fmt.Printf("parallel sample sort: %d keys on %d nodes — verified against sequential sort\n",
		len(want), nodes)
	fmt.Printf("simulated time: %v\n", m.Eng.Now())
	var tx, rx uint64
	for _, n := range m.Nodes {
		st := n.Ctrl.Stats()
		tx += st.TxMessages
		rx += st.RxMessages
	}
	fmt.Printf("NIU traffic: %d messages sent, %d received across the machine\n", tx, rx)
	fmt.Printf("node 0 aP busy: %v of %v (%.0f%%)\n",
		m.Nodes[0].APMeter.BusyTime(), m.Eng.Now(),
		100*float64(m.Nodes[0].APMeter.BusyTime())/float64(m.Eng.Now()))
}
