package node

import (
	"testing"

	"startvoyager/internal/arctic"
	"startvoyager/internal/sim"
)

// TestTransStride: stride is exactly 64 up to 64 nodes (keeping small
// machines byte-identical to the historical fixed layout), the next power
// of two above that, and panics past the express-addressing limit.
func TestTransStride(t *testing.T) {
	cases := []struct{ nodes, want int }{
		{1, 64}, {2, 64}, {4, 64}, {16, 64}, {63, 64}, {64, 64},
		{65, 128}, {128, 128}, {129, 256}, {256, 256},
		{257, 512}, {512, 512}, {1000, 1024}, {1024, 1024},
		{1025, 2048}, {2048, 2048},
	}
	for _, c := range cases {
		if got := TransStride(c.nodes); got != c.want {
			t.Errorf("TransStride(%d)=%d, want %d", c.nodes, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Errorf("TransStride(%d) did not panic", MaxNodes+1)
		}
	}()
	TransStride(MaxNodes + 1)
}

// TestSSramLayoutSmallMatchesHistorical: for <=64 nodes the computed layout
// reproduces the constants the firmware and every golden artifact were built
// against — the byte-identity guarantee for small configurations.
func TestSSramLayoutSmallMatchesHistorical(t *testing.T) {
	for _, n := range []int{2, 4, 16, 64} {
		l := SSramLayoutFor(n)
		if l.SShadow != 0x800 || l.SvcBuf != 0x1000 ||
			l.MissBuf != 0x2800 || l.User != UserSSram {
			t.Errorf("SSramLayoutFor(%d)=%+v, want historical fixed layout", n, l)
		}
	}
}

// TestSSramLayoutScalesWithoutOverlap: at every supported machine size the
// regions are ordered, non-overlapping, and sized for the full translation
// table (4 regions * stride entries * 8 bytes).
func TestSSramLayoutScalesWithoutOverlap(t *testing.T) {
	for _, n := range []int{64, 65, 128, 256, 1024, MaxNodes} {
		l := SSramLayoutFor(n)
		stride := uint32(TransStride(n))
		if l.SShadow != 4*stride*8 {
			t.Errorf("n=%d: shadows at %#x overlap the %d-entry translation table", n, l.SShadow, 4*stride)
		}
		if !(l.SShadow < l.SvcBuf && l.SvcBuf < l.MissBuf && l.MissBuf < l.User) {
			t.Errorf("n=%d: regions out of order: %+v", n, l)
		}
		if l.SvcBuf-l.SShadow < 0x800 {
			t.Errorf("n=%d: shadow region squeezed to %d bytes", n, l.SvcBuf-l.SShadow)
		}
		if l.MissBuf-l.SvcBuf != BasicSlotBytes*SvcEntries || l.User-l.MissBuf != BasicSlotBytes*SvcEntries {
			t.Errorf("n=%d: queue buffers mis-sized: %+v", n, l)
		}
	}
}

// TestTransIndices: the per-destination translation indices tile the four
// regions without collision at a stride > 64.
func TestTransIndices(t *testing.T) {
	eng := sim.NewEngine()
	fab := arctic.NewDirect(eng, 200, 100, 0)
	n := New(eng, 0, fab, DefaultConfig(), 200, 0, 0, 0) // stride 256
	if n.TransStride() != 256 {
		t.Fatalf("stride %d, want 256", n.TransStride())
	}
	seen := map[int]string{}
	for dest := 0; dest < 200; dest++ {
		for _, e := range []struct {
			region string
			idx    int
		}{
			{"basic", n.TransBasicIdx(dest)},
			{"express", n.TransExpressIdx(dest)},
			{"svc", n.TransSvcIdx(dest)},
			{"notify", n.TransNotifyIdx(dest)},
		} {
			if prev, dup := seen[e.idx]; dup {
				t.Fatalf("index %d used by both %s and %s", e.idx, prev, e.region)
			}
			seen[e.idx] = e.region
			if e.idx < 0 || e.idx >= 4*256 {
				t.Fatalf("%s index %d outside the %d-entry table", e.region, e.idx, 4*256)
			}
		}
	}
}
