package bench

import (
	"math"
	"runtime"
	"testing"

	"startvoyager/internal/arctic"
	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/prof"
	"startvoyager/internal/sim"
)

// TestBasicMsgChainAllocs pins the allocation budget of the Basic message
// send/recv chain — the path the //voyager:noalloc annotations and the
// noalloc analyzer guard. Node 1 sends 4-byte messages to node 0 through
// aP compose → CTRL launch → fabric → CTRL landing → aP consume; at the
// growth seed a message cost 112 allocations. The pooled records (bus ops,
// cache transactions, ctrl launch/land state) and stack arrays for core's
// slot and word buffers (the cache copies them, never retains them)
// brought it to 14, the alloc-free fat-tree hop path to 4, and the
// fabric's packet pool with CTRL's pooled wire buffers to 1. That one
// allocation is the received payload the aP library hands the receiver (an
// ownership transfer: 4 bytes here). The budget catches any closure,
// packet or buffer that slips back onto the path.
func TestBasicMsgChainAllocs(t *testing.T) {
	m := core.NewMachine(2)
	d := AllToOne{Mech: "basic", Count: math.MaxInt, Size: 4}.Spawn(m)
	objs, bytes := msgChainCost(t, m, &d.Received)
	const maxAllocs = 1 // the received payload
	const maxBytes = 16
	if objs > maxAllocs {
		t.Errorf("a Basic message allocates %.2f objects, budget is %d (seed was 112)", objs, maxAllocs)
	}
	// Whole bytes: see TestChannelMsgChainAllocs.
	if math.Round(bytes) > maxBytes {
		t.Errorf("a Basic message allocates %.1f B, budget is %d (seed was 5617)", bytes, maxBytes)
	}
	t.Logf("basic: %.2f objects, %.1f B per message", objs, bytes)
}

// msgChainCost measures a warm message chain over a fixed window of
// messages: m's traffic counts each delivered message in *delivered, and
// each measured run steps m until another batch has been delivered, so
// every run starts and ends at the same point of the chain. Objects per
// message come from testing.AllocsPerRun, bytes per message from
// runtime.MemStats over the same runs. testing.Benchmark's per-op figures
// would spread warm-up allocation over b.N, which under -race is only a
// few thousand messages.
func msgChainCost(t *testing.T, m *core.Machine, delivered *int) (objs, bytes float64) {
	t.Helper()
	m.Eng.RunUntil(100 * sim.Microsecond) // warm every pool on both nodes
	if *delivered < 10 {
		t.Fatalf("%d messages in 100 us, want a running sender", *delivered)
	}
	const batch, runs = 100, 20
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	allocs := testing.AllocsPerRun(runs, func() {
		for end := *delivered + batch; *delivered < end; {
			m.Eng.Step()
		}
	})
	runtime.ReadMemStats(&ms1)
	// AllocsPerRun runs the batch once more, to warm up, than it averages
	// over.
	return allocs / batch, float64(ms1.TotalAlloc-ms0.TotalAlloc) / ((runs + 1) * batch)
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
// than a Basic message does. Node 1 sends 4-byte messages to node 0 over
// the pair, and each machine is measured as TestBasicMsgChainAllocs
// measures it.
func TestChannelMsgChainAllocs(t *testing.T) {
	m := core.NewMachine(2)
	d := AllToOne{Mech: "basic", Count: math.MaxInt, Size: 4}.Spawn(m)
	basicObjs, basicBytes := msgChainCost(t, m, &d.Received)

	m = core.NewMachine(2)
	sink := m.API(0).OpenChannel(1, []int{1})
	src := m.API(1).OpenChannel(1, []int{0})
	payload := make([]byte, 4)
	m.Go(1, "src", func(p *sim.Proc, _ *core.API) {
		for {
			if err := src.Send(p, 0, payload); err != nil {
				t.Error(err)
				return
			}
		}
	})
	received := 0
	m.Go(0, "sink", func(p *sim.Proc, _ *core.API) {
		for {
			sink.Recv(p)
			received++
		}
	})
	objs, bytes := msgChainCost(t, m, &received)
	// Objects are exact per batch. Bytes are compared per whole byte: the
	// tiny allocator packs small payloads into 16-byte blocks, so where a
	// window's first and last block fall moves its total by one block.
	if objs > basicObjs || math.Round(bytes) > math.Round(basicBytes) {
		t.Errorf("a channel message allocates %.2f objects, %.1f B; a Basic message %.2f, %.1f B",
			objs, bytes, basicObjs, basicBytes)
	}
	t.Logf("channel: %.2f objects, %.1f B per message", objs, bytes)
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
