package bench

import (
	"testing"

	"startvoyager/internal/arctic"
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
// them) brought it to 14, the alloc-free fat-tree hop path to 4, and the
// fabric's packet pool with CTRL's pooled wire buffers to 1. That one
// allocation is the received payload the aP library hands the receiver (an
// ownership transfer: 4 bytes here). The budget catches any closure,
// packet or buffer that slips back onto the path.
func TestBasicMsgChainAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	r := testing.Benchmark(benchNodeBasicMsg)
	const maxAllocs = 1 // measured: 1 alloc/op, the received payload
	const maxBytes = 16 // measured: 4 B/op
	if got := r.AllocsPerOp(); got > maxAllocs {
		t.Errorf("node/basic-msg allocates %d/op, budget is %d (seed was 112)", got, maxAllocs)
	}
	if got := r.AllocedBytesPerOp(); got > maxBytes {
		t.Errorf("node/basic-msg allocates %d B/op, budget is %d (seed was 5617)", got, maxBytes)
	}
	t.Logf("node/basic-msg: %d allocs/op, %d B/op over %d ops",
		r.AllocsPerOp(), r.AllocedBytesPerOp(), r.N)
}

// TestServiceMsgAllocs pins a warm sP-to-sP service message on a 2-node
// machine: the sender's SendSvc (a pooled command record), CTRL's command
// queue and TxU, the fabric, the receiver's RxU landing and its msgLoop
// dispatch allocate nothing but the payload ReadRxSlot hands the handler.
// The two sPs play ping-pong, each handler answering the other, so every
// message is one send and one dispatch.
func TestServiceMsgAllocs(t *testing.T) {
	const svcPing = 0x70
	m := core.NewMachine(2)
	handled := 0
	body := []byte{1, 2, 3, 4}
	for i, n := range m.Nodes {
		fw, peer := n.FW, 1-i
		fw.Register(svcPing, func(p *sim.Proc, _ uint16, _ []byte) {
			handled++
			fw.SendSvc(p, peer, svcPing, body, arctic.Low, nil)
		})
	}
	m.Go(0, "serve", func(p *sim.Proc, a *core.API) { a.SendSvc(p, 1, svcPing, body) })
	m.Eng.RunUntil(100 * sim.Microsecond) // warm every pool on both nodes
	before := handled
	const window = 100 * sim.Microsecond
	allocs := testing.AllocsPerRun(20, func() { m.Eng.RunUntil(m.Eng.Now() + window) })
	msgs := float64(handled-before) / 21
	if msgs < 5 {
		t.Fatalf("%.1f service messages per %v window, want a running ping-pong", msgs, window)
	}
	if per := allocs / msgs; per > 1 {
		t.Errorf("a service message allocates %.2f objects, want at most 1 (the received payload)", per)
	}
	t.Logf("%.1f allocs per window of %.1f service messages", allocs, msgs)
}

// TestScomaTransactionAllocs pins a warm S-COMA ownership transfer on a
// 2-node machine: two aPs store in turn to one line, so every store's miss
// runs a whole directory transaction (a GetX to the home, a recall to the
// other node, its recalled data back home, and the grant through the
// storer's remote command queue). The step records, their commands and
// line buffers, the sharer lists and the remote command frames are all
// recycled, so a store allocates only its three firmware continuations
// (scoma-recall, scoma-grant, scoma-data), 3 objects each for the Proc
// record and its two bound callbacks, and the payloads ReadRxSlot hands
// the handlers of its three service messages. Before the step records,
// sharer lists and command frames were pooled, the same store allocated 37.
//
// Each measured run steps the engine until another batch of stores has
// completed, so every run starts and ends at the same point of a
// transaction and holds exactly a batch of them.
func TestScomaTransactionAllocs(t *testing.T) {
	m := core.NewMachine(2)
	stores := scomaTurns(m, -1)
	m.Eng.RunUntil(200 * sim.Microsecond) // warm every pool on both nodes
	if *stores < 10 {
		t.Fatalf("%d stores in 200 us, want aPs storing in turn", *stores)
	}
	const batch = 50
	allocs := testing.AllocsPerRun(10, func() {
		for end := *stores + batch; *stores < end; {
			m.Eng.Step()
		}
	})
	const budget = 3*3 + 3 // three spawns at 3 objects, three service payloads
	if per := allocs / batch; per > budget {
		t.Errorf("an S-COMA store allocates %.2f objects, want at most %d", per, budget)
	}
	t.Logf("%.0f allocs per batch of %d stores", allocs, batch)
}

// TestAPServiceSendAllocs: an aP's service send composes its payload on
// the stack, so an aP sending to its own sP allocates only the payload
// ReadRxSlot hands the handler (2 objects per send while the payload was
// built on the heap).
func TestAPServiceSendAllocs(t *testing.T) {
	const svcSink = 0x71
	m := core.NewMachine(1)
	handled := 0
	m.Nodes[0].FW.Register(svcSink, func(*sim.Proc, uint16, []byte) { handled++ })
	body := []byte{1, 2, 3, 4}
	m.Go(0, "send", func(p *sim.Proc, a *core.API) {
		for {
			a.SendSvc(p, 0, svcSink, body)
		}
	})
	m.Eng.RunUntil(100 * sim.Microsecond) // warm every pool
	before := handled
	const window = 100 * sim.Microsecond
	allocs := testing.AllocsPerRun(20, func() { m.Eng.RunUntil(m.Eng.Now() + window) })
	sends := float64(handled-before) / 21
	if sends < 5 {
		t.Fatalf("%.1f service messages handled per %v window, want a sending aP", sends, window)
	}
	if per := allocs / sends; per > 1 {
		t.Errorf("an aP service send allocates %.2f objects, want at most 1 (the received payload)", per)
	}
	t.Logf("%.1f allocs per window of %.1f sends", allocs, sends)
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
