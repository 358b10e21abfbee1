package arctic

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"startvoyager/internal/fault"
	"startvoyager/internal/sim"
)

// collector is a test endpoint recording deliveries, optionally refusing.
type collector struct {
	got    []*Packet
	refuse bool
}

func (c *collector) TryDeliver(p *Packet) bool {
	if c.refuse {
		return false
	}
	c.got = append(c.got, p)
	return true
}

func buildTree(t *testing.T, n int) (*sim.Engine, *FatTree, []*collector) {
	t.Helper()
	eng := sim.NewEngine()
	f := NewFatTree(eng, n, DefaultConfig())
	cols := make([]*collector, n)
	for i := range cols {
		cols[i] = &collector{}
		f.Attach(i, cols[i])
	}
	return eng, f, cols
}

func TestAllPairsDelivery(t *testing.T) {
	for _, n := range []int{1, 2, 4, 5, 16, 32, 64} {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			eng, f, cols := buildTree(t, n)
			sent := 0
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					if s == d {
						continue
					}
					f.Inject(&Packet{Src: s, Dst: d, Priority: Low, Size: 96,
						Payload: [2]int{s, d}})
					sent++
				}
			}
			eng.Run()
			got := 0
			for d, c := range cols {
				for _, p := range c.got {
					pay := p.Payload.([2]int)
					if pay[1] != d || p.Dst != d {
						t.Fatalf("misdelivery: %v arrived at %d", pay, d)
					}
					got++
				}
			}
			if got != sent {
				t.Fatalf("delivered %d of %d", got, sent)
			}
			if st := f.Stats(); st.Delivered != uint64(sent) || st.Injected != uint64(sent) {
				t.Fatalf("stats %+v", st)
			}
		})
	}
}

func TestHopCounts(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFatTree(eng, 16, DefaultConfig()) // 2 levels
	cases := []struct {
		s, d, hops int
	}{
		{0, 1, 2},  // same leaf switch: inject + eject
		{0, 0, 2},  // self via network
		{0, 4, 4},  // different leaf switch: inject, up, down, eject
		{0, 15, 4}, // farthest in a 2-level tree
	}
	for _, c := range cases {
		if got := f.HopCount(c.s, c.d); got != c.hops {
			t.Errorf("HopCount(%d,%d) = %d, want %d", c.s, c.d, got, c.hops)
		}
	}
	f3 := NewFatTree(eng, 64, DefaultConfig()) // 3 levels
	if got := f3.HopCount(0, 63); got != 6 {
		t.Errorf("64-node far hop count = %d, want 6", got)
	}
	if got := f3.HopCount(0, 1); got != 2 {
		t.Errorf("64-node near hop count = %d, want 2", got)
	}
	if f3.Levels() != 3 {
		t.Errorf("levels = %d, want 3", f3.Levels())
	}
}

func TestLatencyModel(t *testing.T) {
	eng, f, cols := buildTree(t, 16)
	f.Inject(&Packet{Src: 0, Dst: 15, Priority: Low, Size: 96})
	eng.Run()
	if len(cols[15].got) != 1 {
		t.Fatal("not delivered")
	}
	// 4 links * 6 flits * 100ns + 3 router hops * 50ns = 2400 + 150.
	if eng.Now() != 2550 {
		t.Fatalf("delivery time = %v, want 2550ns", eng.Now())
	}
}

func TestLinkBandwidth(t *testing.T) {
	// Streaming 96-byte packets over one path: steady-state link rate must
	// be 160 MB/s (one 96B packet per 600ns).
	eng, f, cols := buildTree(t, 4)
	const count = 1000
	for i := 0; i < count; i++ {
		f.Inject(&Packet{Src: 0, Dst: 1, Priority: Low, Size: 96})
	}
	eng.Run()
	if len(cols[1].got) != count {
		t.Fatalf("delivered %d", len(cols[1].got))
	}
	// Pipeline: last packet leaves the inject link at count*600, crosses the
	// eject link by +600 (+router latency). Allow the small constant.
	wantMin, wantMax := sim.Time(count*600), sim.Time(count*600+1000)
	if eng.Now() < wantMin || eng.Now() > wantMax {
		t.Fatalf("stream finished at %v, want about %v", eng.Now(), wantMin)
	}
}

func TestPerPairFIFO(t *testing.T) {
	eng, f, cols := buildTree(t, 16)
	const count = 50
	for i := 0; i < count; i++ {
		f.Inject(&Packet{Src: 3, Dst: 12, Priority: Low, Size: 32, Payload: i})
	}
	eng.Run()
	for i, p := range cols[12].got {
		if p.Payload.(int) != i {
			t.Fatalf("reordered: position %d has %v", i, p.Payload)
		}
	}
}

func TestPriorityBypass(t *testing.T) {
	// Fill the low lane of a shared link, then inject one High packet: it
	// must be delivered before most of the Low backlog.
	eng, f, cols := buildTree(t, 4)
	for i := 0; i < 20; i++ {
		f.Inject(&Packet{Src: 0, Dst: 1, Priority: Low, Size: 96, Payload: "low"})
	}
	eng.Schedule(100, func() {
		f.Inject(&Packet{Src: 0, Dst: 1, Priority: High, Size: 32, Payload: "high"})
	})
	eng.Run()
	pos := -1
	for i, p := range cols[1].got {
		if p.Payload == "high" {
			pos = i
		}
	}
	if pos < 0 || pos > 4 {
		t.Fatalf("high-priority packet delivered at position %d of %d", pos, len(cols[1].got))
	}
}

func TestBackpressureAndPoke(t *testing.T) {
	eng, f, cols := buildTree(t, 4)
	cols[1].refuse = true
	for i := 0; i < 3; i++ {
		f.Inject(&Packet{Src: 0, Dst: 1, Priority: Low, Size: 96, Payload: i})
	}
	eng.Run()
	if len(cols[1].got) != 0 {
		t.Fatal("refused endpoint received packets")
	}
	if f.Stats().Refusals == 0 {
		t.Fatal("no refusals recorded")
	}
	cols[1].refuse = false
	// Pokes are how the NIU signals buffer space; each poke retries the
	// stalled head and restarts the lane.
	eng.Schedule(0, func() { f.Poke(1) })
	eng.Run()
	if len(cols[1].got) != 3 {
		t.Fatalf("after poke got %d packets", len(cols[1].got))
	}
	for i, p := range cols[1].got {
		if p.Payload.(int) != i {
			t.Fatalf("order broken after stall: %v", p.Payload)
		}
	}
}

func TestHighLaneUnaffectedByLowStall(t *testing.T) {
	// A refused Low packet must not block High traffic on the same final
	// link — this is the deadlock-avoidance property the paper requires of
	// the network ("at least two priority levels").
	eng := sim.NewEngine()
	f := NewFatTree(eng, 4, DefaultConfig())
	var delivered []*Packet
	sel := &selectiveEndpoint{}
	f.Attach(0, &collector{})
	f.Attach(1, sel)
	f.Attach(2, &collector{})
	f.Attach(3, &collector{})
	sel.accept = func(p *Packet) bool {
		if p.Priority == Low {
			return false
		}
		delivered = append(delivered, p)
		return true
	}
	f.Inject(&Packet{Src: 0, Dst: 1, Priority: Low, Size: 96})
	eng.Schedule(700, func() {
		f.Inject(&Packet{Src: 0, Dst: 1, Priority: High, Size: 32})
	})
	eng.Run()
	if len(delivered) != 1 || delivered[0].Priority != High {
		t.Fatalf("high packet blocked behind stalled low lane: %v", delivered)
	}
}

type selectiveEndpoint struct{ accept func(*Packet) bool }

func (s *selectiveEndpoint) TryDeliver(p *Packet) bool { return s.accept(p) }

// TestBadPacketPanics: both fabrics reject a malformed packet at Inject
// with a named panic, before it reaches their links.
func TestBadPacketPanics(t *testing.T) {
	eng, tree, _ := buildTree(t, 4)
	direct := NewDirect(eng, 4, 100, 0)
	bad := []Packet{{Src: 0, Dst: 1, Size: 0}, {Src: 0, Dst: 1, Size: 8}, {Src: 0, Dst: 1, Size: 97},
		{Src: 0, Dst: 99, Size: 96}, {Src: -1, Dst: 1, Size: 96}}
	for _, f := range []Fabric{tree, direct} {
		for _, pkt := range bad {
			pkt := pkt
			func() {
				defer func() {
					if r := recover(); !strings.HasPrefix(fmt.Sprint(r), "arctic: bad ") {
						t.Errorf("%T: Inject(%d->%d, %d bytes) panicked with %v, want an arctic: bad ... panic",
							f, pkt.Src, pkt.Dst, pkt.Size, r)
					}
				}()
				f.Inject(&pkt)
			}()
		}
	}
	eng.Run()
}

// TestHopPathAllocs pins the fat tree's per-hop path at zero allocations:
// on a warmed 64-node tree, one packet from 0 to 63 (six links), injected
// and drained, allocates nothing in either routing mode, nor under a fault
// plan that rules on nothing (a delay at probability 1e-9), whose judgement
// returns its launches in an array.
func TestHopPathAllocs(t *testing.T) {
	idle, err := fault.ParsePlan("seed=1, delay=1e-9@1us")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		adaptive bool
		plan     *fault.Plan
	}{{"deterministic", false, nil}, {"adaptive", true, nil}, {"judged", false, idle}} {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.Adaptive = tc.adaptive
		f := NewFatTree(eng, 64, cfg)
		if tc.plan != nil {
			f.SetFaults(fault.NewInjector(eng, *tc.plan))
		}
		f.Attach(63, EndpointFunc(func(*Packet) {}))
		var pkt Packet
		send := func() {
			pkt = Packet{Src: 0, Dst: 63, Priority: Low, Size: 96}
			f.Inject(&pkt)
			eng.Run()
		}
		send() // warm-up: grows the route's lanes and binds its links' callbacks
		if f.HopCount(0, 63) != 6 || f.Stats().Delivered != 1 {
			t.Fatalf("%s: warm-up packet took %d hops, delivered %d", tc.name, f.HopCount(0, 63), f.Stats().Delivered)
		}
		if got := testing.AllocsPerRun(100, send); got != 0 {
			t.Errorf("%s: a 6-hop packet allocates %v times, want 0", tc.name, got)
		}
	}

	// The ideal fabric's channel binds its serialization and arrival
	// callbacks once and pops its FIFOs in place, so a warm pooled packet
	// crosses it without allocating either.
	eng := sim.NewEngine()
	d := NewDirect(eng, 2, 100*sim.Nanosecond, DefaultConfig().FlitTime)
	d.Attach(1, EndpointFunc(func(*Packet) {}))
	send := func() {
		for range 4 { // a burst, so packets queue and fly behind each other
			pkt := d.NewPacket()
			pkt.Src, pkt.Dst, pkt.Priority, pkt.Size = 0, 1, Low, 96
			d.Inject(pkt)
		}
		eng.Run()
	}
	send() // warm-up: the pool, the channel's FIFOs and its callbacks
	if got := testing.AllocsPerRun(100, send); got != 0 {
		t.Errorf("a burst of 4 packets over a Direct channel allocates %v times, want 0", got)
	}
}

// Property: for random tree sizes and node pairs, every injected packet is
// delivered exactly once to the right node, and hop count is within the
// structural bound 2*levels.
func TestRoutingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(63)
		eng := sim.NewEngine()
		tree := NewFatTree(eng, n, DefaultConfig())
		counts := make([]int, n)
		for i := 0; i < n; i++ {
			i := i
			tree.Attach(i, EndpointFunc(func(p *Packet) {
				if p.Dst != i {
					counts[i] = -1 << 30 // poison on misdelivery
					return
				}
				counts[i]++
			}))
		}
		want := make([]int, n)
		for m := 0; m < 200; m++ {
			s, d := rng.Intn(n), rng.Intn(n)
			if tree.HopCount(s, d) > 2*tree.Levels() {
				return false
			}
			tree.Inject(&Packet{Src: s, Dst: d,
				Priority: Priority(rng.Intn(2)), Size: 9 + rng.Intn(88)})
			want[d]++
		}
		eng.Run()
		for i := range counts {
			if counts[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectFabric(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDirect(eng, 3, 250, 100)
	var got []*Packet
	for i := 0; i < 3; i++ {
		i := i
		d.Attach(i, EndpointFunc(func(p *Packet) {
			if p.Dst != i {
				t.Errorf("misdelivery to %d", i)
			}
			got = append(got, p)
		}))
	}
	d.Inject(&Packet{Src: 0, Dst: 1, Priority: Low, Size: 96})
	eng.Run()
	// 250ns latency + 6 flits * 100ns.
	if eng.Now() != 850 {
		t.Fatalf("direct delivery at %v, want 850", eng.Now())
	}
	if len(got) != 1 {
		t.Fatal("not delivered")
	}
}

func TestDirectBackpressure(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDirect(eng, 2, 10, 0)
	c := &collector{refuse: true}
	d.Attach(0, &collector{})
	d.Attach(1, c)
	d.Inject(&Packet{Src: 0, Dst: 1, Priority: Low, Size: 96, Payload: 1})
	d.Inject(&Packet{Src: 0, Dst: 1, Priority: Low, Size: 96, Payload: 2})
	eng.Run()
	if len(c.got) != 0 {
		t.Fatal("refused but delivered")
	}
	c.refuse = false
	eng.Schedule(0, func() { d.Poke(1) })
	eng.Run()
	if len(c.got) != 2 {
		t.Fatalf("got %d after poke", len(c.got))
	}
	if c.got[0].Payload.(int) != 1 {
		t.Fatal("order broken")
	}
}

func TestAdaptiveRoutingDelivers(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Adaptive = true
	f := NewFatTree(eng, 16, cfg)
	counts := make([]int, 16)
	for i := 0; i < 16; i++ {
		i := i
		f.Attach(i, EndpointFunc(func(p *Packet) {
			if p.Dst != i {
				t.Errorf("misdelivery to %d", i)
			}
			counts[i]++
		}))
	}
	// Uniform random traffic.
	rng := rand.New(rand.NewSource(3))
	want := make([]int, 16)
	for k := 0; k < 500; k++ {
		s, d := rng.Intn(16), rng.Intn(16)
		f.Inject(&Packet{Src: s, Dst: d, Priority: Low, Size: 96})
		want[d]++
	}
	eng.Run()
	for i := range counts {
		if counts[i] != want[i] {
			t.Fatalf("node %d: got %d want %d", i, counts[i], want[i])
		}
	}
}

func TestAdaptiveRelievesUpLinkContention(t *testing.T) {
	// In a 64-node (3-level) tree, sources 0 and 4 share their last digit,
	// so deterministic routing funnels both flows onto the same level-0 up
	// link once their ascents converge; adaptive routing spreads them and
	// must drain faster.
	drain := func(adaptive bool) sim.Time {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.Adaptive = adaptive
		f := NewFatTree(eng, 64, cfg)
		for i := 0; i < 64; i++ {
			f.Attach(i, EndpointFunc(func(p *Packet) {}))
		}
		for k := 0; k < 60; k++ {
			f.Inject(&Packet{Src: 0, Dst: 32 + k%16, Priority: Low, Size: 96})
			f.Inject(&Packet{Src: 4, Dst: 48 + k%16, Priority: Low, Size: 96})
		}
		eng.Run()
		return eng.Now()
	}
	det, ada := drain(false), drain(true)
	if ada >= det {
		t.Fatalf("adaptive (%v) not faster than deterministic (%v) under contention", ada, det)
	}
	t.Logf("drain: deterministic=%v adaptive=%v", det, ada)
}

// Property: with finite lane buffering, the number of packets resident in
// any lane's queue never exceeds the configured capacity, for random
// traffic (checked at every delivery).
func TestLaneCapacityProperty(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.LaneCapacity = 2
	f := NewFatTree(eng, 16, cfg)
	check := func() {
		for _, ls := range append(append([][]*link{f.inject, f.eject}, f.up...), f.down...) {
			for _, l := range ls {
				for pr := Priority(0); pr < numPriorities; pr++ {
					if len(l.queues[pr]) > cfg.LaneCapacity {
						t.Fatalf("lane %s/%v holds %d > cap %d",
							l.name(), pr, len(l.queues[pr]), cfg.LaneCapacity)
					}
				}
			}
		}
	}
	for i := 0; i < 16; i++ {
		f.Attach(i, EndpointFunc(func(p *Packet) { check() }))
	}
	rng := rand.New(rand.NewSource(99))
	for k := 0; k < 400; k++ {
		f.Inject(&Packet{Src: rng.Intn(16), Dst: rng.Intn(16),
			Priority: Priority(rng.Intn(2)), Size: 96})
	}
	eng.Run()
	check()
	if f.Stats().Delivered != 400 {
		t.Fatalf("delivered %d of 400", f.Stats().Delivered)
	}
}

func TestInjectReadySignal(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.LaneCapacity = 2
	f := NewFatTree(eng, 4, cfg)
	for i := 0; i < 4; i++ {
		f.Attach(i, EndpointFunc(func(p *Packet) {}))
	}
	hooks := 0
	f.SetReadyHook(0, func() { hooks++ })
	if !f.InjectReady(0, Low) {
		t.Fatal("fresh fabric not ready")
	}
	for i := 0; i < 10; i++ {
		f.Inject(&Packet{Src: 0, Dst: 1, Priority: Low, Size: 96})
	}
	if f.InjectReady(0, Low) {
		t.Fatal("flooded inject lane still ready")
	}
	if !f.InjectReady(0, High) {
		t.Fatal("High lane affected by Low flood")
	}
	eng.Run()
	if hooks == 0 {
		t.Fatal("ready hook never fired as the lane drained")
	}
	if !f.InjectReady(0, Low) {
		t.Fatal("drained lane not ready")
	}
}
