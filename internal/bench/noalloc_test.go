package bench

import "testing"

// TestBasicMsgChainAllocs pins the allocation budget of the Basic message
// send/recv chain — the path the //voyager:noalloc annotations and the
// noalloc analyzer guard. The whole-node benchmark pushes one delivered
// message per op through aP compose → CTRL launch → fabric → CTRL landing →
// aP consume; at the growth seed it cost 112 allocs/op. The pooled records
// (bus ops, cache transactions, ctrl launch/land state, core slot and word
// buffers) brought it to 14, and the alloc-free fat-tree hop path to 4. The
// budget below leaves a little headroom over the measured value
// so incidental runtime jitter does not flake, while still catching any
// closure or buffer that slips back onto the path.
func TestBasicMsgChainAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	r := testing.Benchmark(benchNodeBasicMsg)
	const maxAllocs = 6  // measured: 4 allocs/op
	const maxBytes = 256 // measured: 168 B/op
	if got := r.AllocsPerOp(); got > maxAllocs {
		t.Errorf("node/basic-msg allocates %d/op, budget is %d (seed was 112)", got, maxAllocs)
	}
	if got := r.AllocedBytesPerOp(); got > maxBytes {
		t.Errorf("node/basic-msg allocates %d B/op, budget is %d (seed was 5617)", got, maxBytes)
	}
	t.Logf("node/basic-msg: %d allocs/op, %d B/op over %d ops",
		r.AllocsPerOp(), r.AllocedBytesPerOp(), r.N)
}
