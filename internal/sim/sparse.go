package sim

import (
	"fmt"
	"math/bits"
)

// Sparse indexes a table of which a run touches few slots: the cache's sets,
// a DRAM's pages, an SRAM bank's pages. It is a rank/select bitmap
// (Jacobson, "Space-efficient static trees and graphs", FOCS 1989): one
// occupancy bit per slot, and per 64-slot word the count of occupied slots
// in the words before it. The caller keeps the values of the occupied slots
// in its own list, in slot order, so a slot's value sits at the slot's rank,
// the number of occupied slots below it. A table costs 10 bytes per 64
// slots, about 0.16 bytes a slot, where a pointer per slot costs 8. Find
// and Insert allocate nothing.
type Sparse struct {
	occ  []uint64 // bit s%64 of word s/64 is set once slot s is occupied
	rank []uint16 // rank[w] counts the occupied slots in words [0, w)
}

// NewSparse returns an index over slots [0, n), all unoccupied. A 2-byte
// rank per word bounds n at 65,536 slots.
func NewSparse(n int) Sparse {
	if n < 0 || n > 1<<16 {
		panic(fmt.Sprintf("sim: sparse index over %d slots; a 2-byte rank counts at most %d", n, 1<<16))
	}
	w := (n + 63) / 64
	return Sparse{occ: make([]uint64, w), rank: make([]uint16, w)}
}

// Find returns slot's rank, the position the slot's value has (or, for an
// unoccupied slot, would take) in the caller's list, and whether the slot
// is occupied.
//
//voyager:noalloc
func (x *Sparse) Find(slot int) (int, bool) {
	w, b := slot>>6, uint(slot&63)
	word := x.occ[w]
	return int(x.rank[w]) + bits.OnesCount64(word&(1<<b-1)), word>>b&1 != 0
}

// Insert marks an unoccupied slot occupied. The caller inserts the slot's
// value into its list at the rank Find returned (InsertAt), and the ranks
// of the slots above it move up one with it.
//
//voyager:noalloc
func (x *Sparse) Insert(slot int) {
	w, bit := slot>>6, uint64(1)<<(slot&63)
	if x.occ[w]&bit != 0 {
		panic(fmt.Sprintf("sim: sparse slot %d inserted twice", slot)) //voyager:alloc-ok(panic path)
	}
	x.occ[w] |= bit
	for i := w + 1; i < len(x.rank); i++ {
		x.rank[i]++
	}
}

// InsertAt inserts v at position i of list, shifting the tail up one, and
// returns the lengthened list: PopFront's counterpart for a list kept in
// Sparse rank order. The tail moves by copy within the backing array, which
// grows as append grows it, so a list reserved at its expected length never
// reallocates; the values themselves (line arrays, pages) never move.
//
//voyager:noalloc
func InsertAt[T any](list []T, i int, v T) []T {
	var zero T
	list = append(list, zero) //voyager:alloc-ok(amortized: a list grows past its reserved length only by doubling)
	copy(list[i+1:], list[i:])
	list[i] = v
	return list
}
