package fault

import (
	"bytes"
	"testing"

	"startvoyager/internal/sim"
)

func TestParsePlanDefaults(t *testing.T) {
	p, err := ParsePlan("")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 1 {
		t.Fatalf("default seed %d, want 1", p.Seed)
	}
	for _, lp := range p.Lanes {
		if lp != (LaneProbs{}) {
			t.Fatalf("empty plan has non-zero lane probs: %+v", lp)
		}
	}
}

func TestParsePlanFull(t *testing.T) {
	p, err := ParsePlan("seed=9,drop=0.05,corrupt=0.01,dup=0.02,delay=0.1@2us,outage=1-2@10us:20us,death=3@50us,drop.high=0.001")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 9 {
		t.Fatalf("seed %d", p.Seed)
	}
	if p.Lanes[LaneLow].Drop != 0.05 || p.Lanes[LaneHigh].Drop != 0.001 {
		t.Fatalf("drop probs: %+v", p.Lanes)
	}
	if p.Lanes[LaneHigh].Corrupt != 0.01 || p.Lanes[LaneLow].Corrupt != 0.01 {
		t.Fatalf("corrupt probs: %+v", p.Lanes)
	}
	if p.Lanes[LaneLow].DelayProb != 0.1 || p.Lanes[LaneLow].DelayMax != 2*sim.Microsecond {
		t.Fatalf("delay: %+v", p.Lanes[LaneLow])
	}
	if len(p.Outages) != 1 || p.Outages[0] != (Outage{Src: 1, Dst: 2, From: 10 * sim.Microsecond, To: 20 * sim.Microsecond}) {
		t.Fatalf("outage: %+v", p.Outages)
	}
	if len(p.Deaths) != 1 || p.Deaths[0] != (NodeDeath{Node: 3, At: 50 * sim.Microsecond}) {
		t.Fatalf("death: %+v", p.Deaths)
	}
}

func TestParsePlanWildcardOutage(t *testing.T) {
	p, err := ParsePlan("outage=*-0@1ms:2ms")
	if err != nil {
		t.Fatal(err)
	}
	o := p.Outages[0]
	if o.Src != -1 || o.Dst != 0 {
		t.Fatalf("wildcard outage: %+v", o)
	}
	if !o.covers(5, 0, sim.Time(1500)*sim.Microsecond) {
		t.Error("wildcard src should cover any src")
	}
	if o.covers(5, 1, sim.Time(1500)*sim.Microsecond) {
		t.Error("outage covers wrong dst")
	}
	if o.covers(5, 0, 2*sim.Millisecond) {
		t.Error("outage window should be half-open [From,To)")
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, s := range []string{
		"bogus=1",
		"drop=1.5",
		"drop=-0.1",
		"drop=x",
		"drop.mid=0.1",
		"delay=0.1",
		"delay=0.1@nope",
		"outage=1-2",
		"outage=1-2@20us:10us",
		"death=1",
		"death=x@1us",
		"seed=zz",
		"drop=NaN",
		"death=1@NaNs",
		"death=1@1e30s",
	} {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) accepted", s)
		}
	}
}

func TestParseTime(t *testing.T) {
	cases := map[string]sim.Time{
		"100ns": 100 * sim.Nanosecond,
		"2us":   2 * sim.Microsecond,
		"1.5ms": sim.Time(1500) * sim.Microsecond,
		"1s":    sim.Second,
	}
	for s, want := range cases {
		got, err := ParseTime(s)
		if err != nil {
			t.Errorf("ParseTime(%q): %v", s, err)
			continue
		}
		if got != want {
			t.Errorf("ParseTime(%q) = %v, want %v", s, got, want)
		}
	}
	if _, err := ParseTime("5"); err == nil {
		t.Error("ParseTime accepted a unitless value")
	}
}

func TestJudgeCleanPlanPasses(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(eng, Plan{Seed: 1})
	wire := []byte{1, 2, 3}
	for i := 0; i < 100; i++ {
		v := in.Judge(0, 1, LaneLow, wire)
		if v.Drop || v.Dup || v.Delay != 0 || &v.Wire[0] != &wire[0] {
			t.Fatalf("clean plan perturbed a packet: %+v", v)
		}
	}
	if in.Stats() != (Stats{}) {
		t.Fatalf("clean plan counted faults: %+v", in.Stats())
	}
}

func TestJudgeLoopbackExempt(t *testing.T) {
	plan := Plan{Seed: 1}
	for i := range plan.Lanes {
		plan.Lanes[i] = LaneProbs{Drop: 1}
	}
	eng := sim.NewEngine()
	in := NewInjector(eng, plan)
	if v := in.Judge(2, 2, LaneLow, nil); v.Drop {
		t.Fatal("loopback traffic must bypass the fault plane")
	}
	if v := in.Judge(2, 3, LaneLow, nil); !v.Drop {
		t.Fatal("drop=1 did not drop cross-node traffic")
	}
}

func TestJudgeDropRateConverges(t *testing.T) {
	plan := Plan{Seed: 5}
	for i := range plan.Lanes {
		plan.Lanes[i] = LaneProbs{Drop: 0.3}
	}
	eng := sim.NewEngine()
	in := NewInjector(eng, plan)
	drops := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if in.Judge(0, 1, LaneLow, nil).Drop {
			drops++
		}
	}
	rate := float64(drops) / n
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("drop rate %.3f far from configured 0.3", rate)
	}
	if in.Stats().InjectedDrops != uint64(drops) {
		t.Fatalf("stats %d vs observed %d", in.Stats().InjectedDrops, drops)
	}
}

func TestJudgeCorruptFlipsOneBit(t *testing.T) {
	plan := Plan{Seed: 3}
	for i := range plan.Lanes {
		plan.Lanes[i] = LaneProbs{Corrupt: 1}
	}
	eng := sim.NewEngine()
	in := NewInjector(eng, plan)
	orig := []byte{0xAA, 0x55, 0x00, 0xFF}
	v := in.Judge(0, 1, LaneLow, orig)
	if &v.Wire[0] == &orig[0] {
		t.Fatal("corruption mutated the caller's buffer")
	}
	diff := 0
	for i := range orig {
		diff += popcount(orig[i] ^ v.Wire[i])
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bits, want exactly 1", diff)
	}
}

func popcount(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

func TestJudgeDelayBounded(t *testing.T) {
	plan := Plan{Seed: 11}
	for i := range plan.Lanes {
		plan.Lanes[i] = LaneProbs{DelayProb: 1, DelayMax: 3 * sim.Microsecond}
	}
	eng := sim.NewEngine()
	in := NewInjector(eng, plan)
	for i := 0; i < 1000; i++ {
		v := in.Judge(0, 1, LaneLow, nil)
		if v.Delay <= 0 || v.Delay > 3*sim.Microsecond {
			t.Fatalf("delay %v outside (0, 3us]", v.Delay)
		}
	}
}

func TestJudgeOutageWindow(t *testing.T) {
	plan := Plan{Seed: 1, Outages: []Outage{{Src: 0, Dst: 1,
		From: 10 * sim.Microsecond, To: 20 * sim.Microsecond}}}
	eng := sim.NewEngine()
	in := NewInjector(eng, plan)
	verdicts := make(map[string]bool)
	check := func(name string, at sim.Time, src, dst int) {
		eng.At(at, func() { verdicts[name] = in.Judge(src, dst, LaneLow, nil).Drop })
	}
	check("before", 9*sim.Microsecond, 0, 1)
	check("during", 15*sim.Microsecond, 0, 1)
	check("reverse", 15*sim.Microsecond, 1, 0)
	check("after", 25*sim.Microsecond, 0, 1)
	eng.Run()
	if verdicts["before"] || verdicts["after"] {
		t.Fatalf("outage leaked outside its window: %v", verdicts)
	}
	if !verdicts["during"] {
		t.Fatal("outage did not drop in-window traffic")
	}
	if verdicts["reverse"] {
		t.Fatal("outage is directional; reverse path dropped")
	}
	if in.Stats().OutageDrops != 1 {
		t.Fatalf("OutageDrops = %d, want 1", in.Stats().OutageDrops)
	}
}

func TestJudgeNodeDeath(t *testing.T) {
	plan := Plan{Seed: 1, Deaths: []NodeDeath{{Node: 1, At: 10 * sim.Microsecond}}}
	eng := sim.NewEngine()
	in := NewInjector(eng, plan)
	var before, toDead, fromDead, unrelated, delivery bool
	eng.At(5*sim.Microsecond, func() { before = in.Judge(0, 1, LaneLow, nil).Drop })
	eng.At(15*sim.Microsecond, func() {
		toDead = in.Judge(0, 1, LaneLow, nil).Drop
		fromDead = in.Judge(1, 0, LaneLow, nil).Drop
		unrelated = in.Judge(0, 2, LaneLow, nil).Drop
		delivery = in.DropOnDelivery(1)
	})
	eng.Run()
	if before {
		t.Fatal("node dropped traffic before its death time")
	}
	if !toDead || !fromDead {
		t.Fatalf("death must sever both directions: to=%v from=%v", toDead, fromDead)
	}
	if unrelated {
		t.Fatal("death of node 1 dropped 0->2 traffic")
	}
	if !delivery {
		t.Fatal("DropOnDelivery must swallow packets in flight to a dead node")
	}
}

// TestDropOnDeliveryAllocs pins the delivery-boundary check, which the fat
// tree's alloc-free hop path calls on every ejection while a plan is
// attached, at zero allocations for a live and a dead destination alike
// (unobserved engine).
func TestDropOnDeliveryAllocs(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(eng, Plan{Seed: 1, Deaths: []NodeDeath{{Node: 1, At: 0}}})
	for _, dst := range []int{0, 1} {
		if got := testing.AllocsPerRun(100, func() { in.DropOnDelivery(dst) }); got != 0 {
			t.Errorf("DropOnDelivery(%d) allocates %v times, want 0", dst, got)
		}
	}
}

func TestJudgeDuplicateCopiesWire(t *testing.T) {
	plan := Plan{Seed: 2}
	for i := range plan.Lanes {
		plan.Lanes[i] = LaneProbs{Duplicate: 1}
	}
	eng := sim.NewEngine()
	in := NewInjector(eng, plan)
	v := in.Judge(0, 1, LaneLow, []byte{9, 9})
	if !v.Dup {
		t.Fatal("dup=1 did not duplicate")
	}
	if in.Stats().Duplicated != 1 {
		t.Fatalf("Duplicated = %d", in.Stats().Duplicated)
	}
}

func TestSameSeedSameVerdicts(t *testing.T) {
	plan := Plan{Seed: 77}
	for i := range plan.Lanes {
		plan.Lanes[i] = LaneProbs{Drop: 0.2, Corrupt: 0.1, Duplicate: 0.1,
			DelayProb: 0.3, DelayMax: sim.Microsecond}
	}
	run := func() []Verdict {
		eng := sim.NewEngine()
		in := NewInjector(eng, plan)
		var out []Verdict
		for i := 0; i < 500; i++ {
			out = append(out, in.Judge(i%4, (i+1)%4, i%2, []byte{byte(i)}))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		av, bv := a[i], b[i]
		if av.Drop != bv.Drop || av.Dup != bv.Dup || av.Delay != bv.Delay ||
			!bytes.Equal(av.Wire, bv.Wire) {
			t.Fatalf("verdict %d differs between same-seed runs: %+v vs %+v", i, av, bv)
		}
	}
}

// Only lane rates draw from a plan's seed; outages and deaths do not.
func TestPlanUsesSeed(t *testing.T) {
	for _, c := range []struct {
		plan string
		want bool
	}{
		{"", false},
		{"outage=1-0@20us:200us,death=3@50us", false},
		{"drop.low=0.05", true},
		{"corrupt.high=0.01", true},
		{"dup=0.02", true},
		{"delay=0.1@2us", true},
	} {
		p, err := ParsePlan(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.UsesSeed(); got != c.want {
			t.Errorf("%q: UsesSeed = %v, want %v", c.plan, got, c.want)
		}
	}
	// A delay rate with no bound never draws, as in Judge.
	var p Plan
	p.Lanes[LaneLow].DelayProb = 1
	if p.UsesSeed() {
		t.Error("a delay rate without a bound uses the seed")
	}
}
