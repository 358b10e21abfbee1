package sim

import "testing"

func TestRngDeterministic(t *testing.T) {
	// The reference generator's first draw from state 0.
	if r := NewSplitMix64(0); r.Next() != 0xE220A8397B1DCDAF {
		t.Fatalf("first draw from seed 0 is not SplitMix64's")
	}
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("streams diverge at draw %d", i)
		}
	}
	c := NewSplitMix64(43)
	same := 0
	a = NewSplitMix64(42)
	for i := 0; i < 1000; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d of 1000 draws collide across seeds", same)
	}
}

func TestRngFloatRange(t *testing.T) {
	r := NewSplitMix64(7)
	for i := 0; i < 10000; i++ {
		f := r.Float()
		if f < 0 || f >= 1 {
			t.Fatalf("Float() out of [0,1): %v", f)
		}
	}
}
