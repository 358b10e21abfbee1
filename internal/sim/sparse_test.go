package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestSparseAgainstSortedReference: slots inserted in random order over a
// 4,096-slot table are ranked exactly as a sorted list of the occupied
// slots ranks them, after every insertion and for every slot, occupied or
// not, and the caller's list built with InsertAt holds each slot's value at
// its rank. The inserted slots include the first and last slot of every
// 64-slot word, where a word's mask or rank count is off by one first.
func TestSparseAgainstSortedReference(t *testing.T) {
	const n = 4096
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		var slots []int
		for w := 0; w < n/64; w++ {
			slots = append(slots, 64*w, 64*w+63)
		}
		for len(slots) < 2*n/64+400 {
			if s := rng.Intn(n); !slices.Contains(slots, s) {
				slots = append(slots, s)
			}
		}
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })

		x := NewSparse(n)
		var ref, vals []int // occupied slots sorted; the caller's value list
		for k, s := range slots {
			pos, ok := x.Find(s)
			if ok {
				t.Fatalf("seed %d: slot %d occupied before its insertion", seed, s)
			}
			x.Insert(s)
			vals = InsertAt(vals, pos, s)
			ref = slices.Insert(ref, sort.SearchInts(ref, s), s)
			for q := 0; q < n; q++ {
				want := sort.SearchInts(ref, q)
				occupied := want < len(ref) && ref[want] == q
				got, ok := x.Find(q)
				if got != want || ok != occupied {
					t.Fatalf("seed %d, after %d insertions: Find(%d) = %d, %v; the sorted reference ranks it %d, %v",
						seed, k+1, q, got, ok, want, occupied)
				}
				if ok && vals[got] != q {
					t.Fatalf("seed %d: slot %d's value %d sits at its rank %d", seed, q, vals[got], got)
				}
			}
		}
	}
}

// TestSparseBounds: a table past what a 2-byte rank counts is refused at
// construction, a slot inserted twice panics rather than skewing every rank
// above it, and a table of 65,536 slots ranks its last slot.
func TestSparseBounds(t *testing.T) {
	panics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	panics("NewSparse(65537)", func() { NewSparse(1<<16 + 1) })
	x := NewSparse(100)
	x.Insert(70)
	panics("a second Insert(70)", func() { x.Insert(70) })

	big := NewSparse(1 << 16)
	for s := 0; s < 1<<16; s += 2 {
		big.Insert(s)
	}
	big.Insert(1<<16 - 1)
	if pos, ok := big.Find(1<<16 - 1); !ok || pos != 1<<15 {
		t.Fatalf("last slot of a full-size table: Find = %d, %v, want %d, true", pos, ok, 1<<15)
	}
}

// TestSparseAllocs: finding and inserting slots, and inserting into a list
// with room reserved, allocate nothing.
func TestSparseAllocs(t *testing.T) {
	x := NewSparse(4096)
	list := make([]int, 0, 4096)
	s := 0
	if n := testing.AllocsPerRun(1000, func() {
		pos, ok := x.Find(s)
		if !ok {
			x.Insert(s)
			list = InsertAt(list, pos, s)
		}
		s = (s + 37) % 4096
	}); n != 0 {
		t.Fatalf("Find/Insert/InsertAt allocate %.1f times per call", n)
	}
}
