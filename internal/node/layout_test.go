package node

import (
	"testing"

	"startvoyager/internal/arctic"
	"startvoyager/internal/firmware"
	"startvoyager/internal/niu/ctrl"
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
	n := New(eng, 0, fab, DefaultConfig(), 200, 0, 0, 0, TransImage(200)) // stride 256
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

// TestTransImageSharedByEveryNode: on a 256-node machine every node's sSRAM
// holds the default entry for every destination in all four regions, read
// from the one image the machine built. A node that rewrites an entry
// copies the page for itself alone: another node still reads the default
// at that index, and the writer still reads it next to the new entry.
func TestTransImageSharedByEveryNode(t *testing.T) {
	const numNodes = 256
	eng := sim.NewEngine()
	fab := arctic.NewDirect(eng, numNodes, 100, 0)
	trans := TransImage(numNodes)
	nodes := make([]*Node, numNodes)
	for i := range nodes {
		nodes[i] = New(eng, i, fab, DefaultConfig(), numNodes, 0, 0, 0, trans)
	}
	read := func(n *Node, idx int) [8]byte {
		var b [8]byte
		n.SSram.Read(uint32(idx)*8, b[:])
		return b
	}
	// entry is the table's 8-byte format: node, logical queue, flags
	// (1 valid, 2 high priority).
	entry := func(dest int, lq uint16, flags byte) [8]byte {
		return [8]byte{byte(dest >> 8), byte(dest), byte(lq >> 8), byte(lq), flags}
	}
	for _, n := range nodes {
		for dest := 0; dest < numNodes; dest++ {
			for _, e := range []struct {
				idx int
				lq  uint16
			}{
				{n.TransBasicIdx(dest), LqBasic},
				{n.TransExpressIdx(dest), LqExpress},
				{n.TransSvcIdx(dest), firmware.SvcLogicalQ},
				{n.TransNotifyIdx(dest), LqNotify},
			} {
				if got, want := read(n, e.idx), entry(dest, e.lq, 1); got != want {
					t.Fatalf("node %d entry %d reads % x, want % x", n.ID, e.idx, got, want)
				}
			}
		}
	}

	idx := nodes[0].TransExpressIdx(1)
	nodes[0].Ctrl.WriteTransEntry(idx, ctrl.TransEntry{
		PhysNode: 1, LogicalQ: LqExpress, Priority: arctic.High, Valid: true})
	if got, want := read(nodes[0], idx), entry(1, LqExpress, 3); got != want {
		t.Errorf("node 0 entry %d reads % x after its write, want % x", idx, got, want)
	}
	if got, want := read(nodes[0], idx+1), entry(2, LqExpress, 1); got != want {
		t.Errorf("node 0 entry %d reads % x next to its write, want the default % x", idx+1, got, want)
	}
	if got, want := read(nodes[1], idx), entry(1, LqExpress, 1); got != want {
		t.Errorf("node 1 entry %d reads % x after node 0's write, want the default % x", idx, got, want)
	}
}
