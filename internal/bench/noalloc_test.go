package bench

import (
	"testing"

	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/prof"
	"startvoyager/internal/sim"
)

// TestBasicMsgChainAllocs pins the allocation budget of the Basic message
// send/recv chain — the path the //voyager:noalloc annotations and the
// noalloc analyzer guard. The whole-node benchmark pushes one delivered
// message per op through aP compose → CTRL launch → fabric → CTRL landing →
// aP consume; at the growth seed it cost 112 allocs/op. The pooled records
// (bus ops, cache transactions, ctrl launch/land state) and stack arrays
// for core's slot and word buffers (the cache copies them, never retains
// them) brought it to 14, and the alloc-free fat-tree hop path to 4. The
// budget below leaves a little headroom over the measured value so
// incidental runtime jitter does not flake, while still catching any
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

// TestChannelMsgChainAllocs: a protected channel's send and receive run the
// library's slot path, so a message over a channel pair allocates no more
// than a Basic message does in node/basic-msg.
func TestChannelMsgChainAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	basic := testing.Benchmark(benchNodeBasicMsg)
	ch := testing.Benchmark(benchNodeChannelMsg)
	if ch.AllocsPerOp() > basic.AllocsPerOp() || ch.AllocedBytesPerOp() > basic.AllocedBytesPerOp() {
		t.Errorf("channel message allocates %d/op, %d B/op; node/basic-msg %d/op, %d B/op",
			ch.AllocsPerOp(), ch.AllocedBytesPerOp(), basic.AllocsPerOp(), basic.AllocedBytesPerOp())
	}
	t.Logf("channel: %d allocs/op, %d B/op over %d ops", ch.AllocsPerOp(), ch.AllocedBytesPerOp(), ch.N)
}

// benchNodeChannelMsg is benchNodeBasicMsg over a protected channel pair:
// node 1 sends 4-byte messages to node 0, one delivered message per op.
func benchNodeChannelMsg(b *testing.B) {
	m := core.NewMachine(2)
	sink := m.API(0).OpenChannel(1, []int{1})
	src := m.API(1).OpenChannel(1, []int{0})
	payload := make([]byte, 4)
	m.Go(1, "src", func(p *sim.Proc, _ *core.API) {
		for range b.N {
			if err := src.Send(p, 0, payload); err != nil {
				b.Error(err)
			}
		}
	})
	m.Go(0, "sink", func(p *sim.Proc, _ *core.API) {
		for range b.N {
			sink.Recv(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	m.Run()
}

// TestEmptyPollZeroAllocs: an aP spinning in RecvBasic on an empty queue
// allocates nothing per try, with or without the profiler attached. Each
// try is one uncached bus read re-issued from the previous one's
// completion, with the occupancy bracket closed and reopened in between.
func TestEmptyPollZeroAllocs(t *testing.T) {
	for _, profiled := range []bool{false, true} {
		cfg := cluster.DefaultConfig(2)
		if profiled {
			cfg.Profiler = prof.New()
		}
		m := core.NewMachineConfig(cfg)
		m.Go(0, "sink", func(p *sim.Proc, a *core.API) { a.RecvBasic(p) })
		m.Eng.RunUntil(sim.Microsecond) // warm the wait's pools
		bus0 := m.Nodes[0].Bus
		before := bus0.Stats().Transactions
		allocs := testing.AllocsPerRun(100, func() { m.Eng.RunUntil(m.Eng.Now() + sim.Microsecond) })
		tries := bus0.Stats().Transactions - before
		if tries < 500 {
			t.Fatalf("profiled=%v: %d tries in 101 us, want a spinning receiver", profiled, tries)
		}
		if allocs != 0 {
			t.Errorf("profiled=%v: spinning RecvBasic allocates %.1f per microsecond (%d tries), want 0",
				profiled, allocs, tries)
		}
	}
}
