package arctic

import (
	"fmt"
	"testing"

	"startvoyager/internal/sim"
)

// Depth invariants for large trees. A 64-node radix-4 tree has 3 switch
// levels, 256 nodes 4, and 1024 nodes 5 — deep enough that routing,
// conservation, and construction-order bugs that are invisible on the
// 4-node machines show up.

var depthTestSizes = []int{64, 256, 1024}

// refRoute is the reference route from src to dst on an idle tree: the
// injection link, the up links to the nearest common ancestor, the down
// links on the destination's digits, and the ejection link. Deterministic
// routing climbs on the source's last digit; adaptive routing finds every
// up link idle and takes the lowest port.
func refRoute(f *FatTree, src, dst int) []*link {
	links := []*link{f.inject[src]}
	lca := f.lcaLevel(src, dst)
	w := src / Radix // word of the leaf-adjacent switch
	j := f.digit(src, f.n-1)
	if f.cfg.Adaptive {
		j = 0
	}
	for l := f.n - 2; l >= lca; l-- { // ascend
		links = append(links, f.up[l][w*Radix+j])
		w = f.setWordDigit(w, l, j)
	}
	for l := lca; l <= f.n-2; l++ { // descend
		i := f.digit(dst, l)
		links = append(links, f.down[l][w*Radix+i])
		w = f.setWordDigit(w, l, i)
	}
	return append(links, f.eject[dst])
}

// routePairs returns every (src, dst) pair at 64 nodes, and at larger sizes
// a deterministic sample covering every LCA level: node 0 against powers of
// two, plus stride-walked pairs.
func routePairs(n int) [][2]int {
	var pairs [][2]int
	if n <= 64 {
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				pairs = append(pairs, [2]int{s, d})
			}
		}
		return pairs
	}
	for d := 1; d < n; d *= 2 {
		pairs = append(pairs, [2]int{0, d}, [2]int{d, 0}, [2]int{n - 1, n - 1 - d})
	}
	for s := 0; s < n; s += n/16 + 1 {
		pairs = append(pairs, [2]int{s, (s*7 + 3) % n})
	}
	return pairs
}

// TestRouteLengthAtDepth walks real packets, one at a time, over idle trees
// in both routing modes. The links whose busy time grows are exactly the
// reference route, HopCount is its length — 2*(levels-1-lcaLevel) switch
// links plus injection and ejection, symmetric around the nearest common
// ancestor — and the packet arrives after one 96-byte serialization per
// link and one router decision per switch.
func TestRouteLengthAtDepth(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		for _, n := range depthTestSizes {
			eng := sim.NewEngine()
			cfg := DefaultConfig()
			cfg.Adaptive = adaptive
			f := NewFatTree(eng, n, cfg)
			var lat sim.Time
			for i := 0; i < n; i++ {
				f.Attach(i, EndpointFunc(func(p *Packet) { lat = eng.Now() - p.InjectedAt() }))
			}
			busy := make([]sim.Time, len(f.links))
			for _, pr := range routePairs(n) {
				src, dst := pr[0], pr[1]
				for i, l := range f.links {
					busy[i] = l.busyNs
				}
				f.Inject(&Packet{Src: src, Dst: dst, Priority: Low, Size: 96})
				eng.Run()

				route := refRoute(f, src, dst)
				onRoute := make(map[*link]bool, len(route))
				for _, l := range route {
					onRoute[l] = true
				}
				crossed := 0
				for i, l := range f.links {
					if l.busyNs == busy[i] {
						continue
					}
					crossed++
					if !onRoute[l] {
						t.Errorf("adaptive=%v n=%d: %d->%d crossed %s, off the reference route",
							adaptive, n, src, dst, l.name())
					}
				}
				if crossed != len(route) {
					t.Errorf("adaptive=%v n=%d: %d->%d crossed %d links, reference route has %d",
						adaptive, n, src, dst, crossed, len(route))
				}
				if got := f.HopCount(src, dst); got != len(route) {
					t.Errorf("adaptive=%v n=%d: HopCount(%d,%d)=%d, reference route has %d links",
						adaptive, n, src, dst, got, len(route))
				}
				hops := sim.Time(len(route))
				if want := hops*600*sim.Nanosecond + (hops-1)*50*sim.Nanosecond; lat != want {
					t.Errorf("adaptive=%v n=%d: %d->%d arrived after %v, want %v for %d hops",
						adaptive, n, src, dst, lat, want, hops)
				}
			}
		}
	}
}

// TestPacketConservationAtDepth: in both routing modes, every injected
// packet is delivered once the event queue drains, nothing is buffered in
// the fabric afterwards, and no lane ever exceeded its credit capacity.
func TestPacketConservationAtDepth(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		for _, n := range depthTestSizes {
			eng := sim.NewEngine()
			cfg := DefaultConfig()
			cfg.Adaptive = adaptive
			f := NewFatTree(eng, n, cfg)
			got := make([]int, n)
			for i := 0; i < n; i++ {
				i := i
				f.Attach(i, EndpointFunc(func(*Packet) { got[i]++ }))
			}
			// Mixed pattern: a hotspot onto node 0 plus transpose-ish pairs,
			// both priorities, staggered injection times.
			injected := 0
			for src := 0; src < n; src += 3 {
				src := src
				dst := (src*5 + n/2) % n
				if dst == src {
					dst = (dst + 1) % n
				}
				for k := 0; k < 4; k++ {
					k := k
					pri := Low
					if k%2 == 1 {
						pri = High
					}
					d := dst
					if k == 3 {
						d = 0 // hotspot component
					}
					if d == src {
						d = (d + 1) % n
					}
					dd := d
					eng.Schedule(sim.Time(k)*100*sim.Nanosecond, func() {
						f.Inject(&Packet{Src: src, Dst: dd, Priority: pri, Size: 96})
					})
					injected++
				}
			}
			eng.Run()
			st := f.Stats()
			if st.Injected != uint64(injected) || st.Delivered != uint64(injected) {
				t.Errorf("adaptive=%v n=%d: injected=%d delivered=%d, want both %d",
					adaptive, n, st.Injected, st.Delivered, injected)
			}
			total := 0
			for _, g := range got {
				total += g
			}
			if total != injected {
				t.Errorf("adaptive=%v n=%d: endpoints saw %d packets, want %d", adaptive, n, total, injected)
			}
			if inflight := f.InFlight(); inflight != 0 {
				t.Errorf("adaptive=%v n=%d: %d packets still buffered after drain", adaptive, n, inflight)
			}
			if err := f.CheckLanes(); err != nil {
				t.Errorf("adaptive=%v n=%d: %v", adaptive, n, err)
			}
		}
	}
}

// TestDeterministicConstructionAtDepth: two identically configured trees
// enumerate exactly the same links in the same order — the property the
// metrics registry, heatmaps, and golden artifacts rely on.
func TestDeterministicConstructionAtDepth(t *testing.T) {
	for _, n := range depthTestSizes {
		a := NewFatTree(sim.NewEngine(), n, DefaultConfig())
		b := NewFatTree(sim.NewEngine(), n, DefaultConfig())
		if a.NumLinks() != b.NumLinks() {
			t.Fatalf("n=%d: link counts differ: %d vs %d", n, a.NumLinks(), b.NumLinks())
		}
		wantLinks := 2*n + 2*(a.n-1)*a.width*Radix
		if a.NumLinks() != wantLinks {
			t.Errorf("n=%d: %d links, want %d", n, a.NumLinks(), wantLinks)
		}
		for i := range a.links {
			if an, bn := a.links[i].name(), b.links[i].name(); an != bn {
				t.Fatalf("n=%d: link %d name %q vs %q", n, i, an, bn)
			}
		}
	}
}

// TestStallsByLevel: the per-level aggregation partitions the per-link
// counters exactly (sums match), covers every link once, emits rows in hop
// order, and under an all-to-one hotspot records stalls on several distinct
// levels — backpressure reaching beyond the hotspot's own ejection link is
// what "tree saturation" means.
func TestStallsByLevel(t *testing.T) {
	for _, n := range []int{64, 256} {
		eng := sim.NewEngine()
		f := NewFatTree(eng, n, DefaultConfig())
		for i := 0; i < n; i++ {
			f.Attach(i, EndpointFunc(func(*Packet) {}))
		}
		for src := 1; src < n; src++ {
			src := src
			for k := 0; k < 8; k++ {
				eng.Schedule(0, func() {
					f.Inject(&Packet{Src: src, Dst: 0, Priority: Low, Size: 96})
				})
			}
		}
		eng.Run()

		rows := f.StallsByLevel()
		wantRows := 2 * f.n
		if len(rows) != wantRows {
			t.Fatalf("n=%d: %d rows, want %d", n, len(rows), wantRows)
		}
		wantOrder := []string{"inject"}
		for l := f.n - 2; l >= 0; l-- {
			wantOrder = append(wantOrder, fmt.Sprintf("up-l%d", l))
		}
		for l := 0; l <= f.n-2; l++ {
			wantOrder = append(wantOrder, fmt.Sprintf("dn-l%d", l))
		}
		wantOrder = append(wantOrder, "eject")
		var rowLinks int
		var rowStalls, rowNs uint64
		levelsWithStalls := 0
		for i, r := range rows {
			if r.Level != wantOrder[i] {
				t.Errorf("n=%d: row %d is %q, want %q", n, i, r.Level, wantOrder[i])
			}
			rowLinks += r.Links
			rowStalls += r.Stalls
			rowNs += r.StalledNs
			if r.Stalls > 0 {
				levelsWithStalls++
			}
		}
		if rowLinks != f.NumLinks() {
			t.Errorf("n=%d: rows cover %d links, fabric has %d", n, rowLinks, f.NumLinks())
		}
		var linkStalls, linkNs uint64
		for _, l := range f.links {
			linkStalls += l.stallCnt.Events
			linkNs += l.stallCnt.Amount
		}
		if rowStalls != linkStalls || rowNs != linkNs {
			t.Errorf("n=%d: aggregation says %d stalls/%dns, per-link counters say %d/%dns",
				n, rowStalls, rowNs, linkStalls, linkNs)
		}
		if levelsWithStalls < 3 {
			t.Errorf("n=%d: hotspot stalled only %d levels; saturation should span the tree", n, levelsWithStalls)
		}
	}
}
