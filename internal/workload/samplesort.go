package workload

import (
	"encoding/binary"
	"slices"
	"sort"

	"startvoyager/internal/core"
	"startvoyager/internal/mpi"
	"startvoyager/internal/sim"
)

// Samplesort is one rank's part of a parallel sample sort over c, a whole
// application on the MPI library, run by the rank's Proc p on its node API
// a: sort the rank's keys in place, gather regular samples at rank 0, which
// picks the splitters and broadcasts them, exchange buckets all-to-all,
// sort what arrived, and meet at a barrier. Each local sort is charged
// 50 ns of aP compute per key. It returns the rank's share of the global
// order: every key of rank r precedes every key of rank r+1.
func Samplesort(p *sim.Proc, a *core.API, c *mpi.Comm, keys []uint32) []uint32 {
	n := c.Size()
	slices.Sort(keys)
	a.Compute(p, sim.Time(len(keys))*50)

	samples := make([]uint32, 0, n-1)
	for i := 1; i < n; i++ {
		samples = append(samples, keys[i*len(keys)/n])
	}
	gathered := c.Gather(p, 0, encodeU32(samples))
	var splitters []uint32
	if c.Rank() == 0 {
		var pool []uint32
		for _, g := range gathered {
			pool = append(pool, decodeU32(g)...)
		}
		slices.Sort(pool)
		for i := 1; i < n; i++ {
			splitters = append(splitters, pool[i*len(pool)/n])
		}
	}
	splitters = decodeU32(c.Bcast(p, 0, encodeU32(splitters)))

	buckets := make([][]uint32, n)
	for _, k := range keys {
		b := sort.Search(len(splitters), func(i int) bool { return k < splitters[i] })
		buckets[b] = append(buckets[b], k)
	}
	parts := make([][]byte, n)
	for i := range parts {
		parts[i] = encodeU32(buckets[i])
	}
	var mine []uint32
	for _, part := range c.Alltoall(p, parts) {
		mine = append(mine, decodeU32(part)...)
	}
	slices.Sort(mine)
	a.Compute(p, sim.Time(len(mine))*50)
	c.Barrier(p)
	return mine
}

func encodeU32(keys []uint32) []byte {
	b := make([]byte, 4*len(keys))
	for i, k := range keys {
		binary.BigEndian.PutUint32(b[i*4:], k)
	}
	return b
}

func decodeU32(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.BigEndian.Uint32(b[i*4:])
	}
	return out
}
