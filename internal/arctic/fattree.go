package arctic

import (
	"fmt"

	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// Arctic's fixed geometry: radix-4 routers and 16-byte flits. The flit size
// is shared by the fat tree, the Direct fabric and CTRL's block-transmit
// pacing.
const (
	Radix     = 4
	FlitBytes = 16
)

// Config holds fat-tree timing parameters. The defaults reproduce Arctic's
// published characteristics: 160 MB/s per link per direction (one flit per
// 100 ns).
type Config struct {
	FlitTime      sim.Time // serialization time per flit
	RouterLatency sim.Time // per-hop routing decision latency
	// LaneCapacity bounds each link lane's packet buffer; full lanes
	// backpressure upstream links hop by hop.
	LaneCapacity int
	// Adaptive selects the least-occupied up-link during ascent instead of
	// the deterministic source-digit choice. Still deterministic as a
	// simulation, but packets of one (src,dst) pair may take different
	// paths and arrive out of order — suitable for network studies only;
	// the NIU protocol layers rely on deterministic routing's FIFO.
	Adaptive bool
}

// DefaultConfig returns the Arctic-like parameter set.
func DefaultConfig() Config {
	return Config{FlitTime: 100 * sim.Nanosecond, RouterLatency: 50 * sim.Nanosecond,
		LaneCapacity: 4}
}

// FatTree is a k-ary n-tree fabric (the Arctic topology). Routing is
// deterministic: packets ascend toward the nearest common ancestor level
// using an up-link selected by the source's least-significant digit (so the
// k leaves under a switch spread across its k up links), then descend
// following the destination's digits. Config.Adaptive swaps the up link for
// the least-loaded one; both modes route each hop in the same step, as the
// packet reaches the switch. Each directed link serializes at the
// configured flit rate and arbitrates two priority lanes, High first.
type FatTree struct {
	edge
	cfg    Config
	n      int // levels
	width  int // k^(n-1): words per level
	leaves int // k^n

	inject     []*link
	eject      []*link
	links      []*link // every link, in construction order, for metrics
	readyHooks []func()
	// up[l][w*k+j]: switch(l+1, w) -> switch(l, w with digit l = j)
	// down[l][w*k+i]: switch(l, w) -> switch(l+1, w with digit l = i)
	up, down [][]*link
}

// NewFatTree builds a fabric for numNodes endpoints (rounded up internally
// to a power of the radix).
func NewFatTree(eng *sim.Engine, numNodes int, cfg Config) *FatTree {
	if numNodes < 1 {
		panic("arctic: need at least one node")
	}
	k := Radix
	n, leaves := 1, k
	for leaves < numNodes {
		n++
		leaves *= k
	}
	f := &FatTree{cfg: cfg, n: n, width: leaves / k, leaves: leaves}
	f.edge = newEdge(eng, numNodes, f.launch)
	f.readyHooks = make([]func(), numNodes)
	f.inject = make([]*link, numNodes)
	f.eject = make([]*link, numNodes)
	// Links carry a compact identity (kind/level/word/port) instead of a
	// formatted name: at 1024 nodes the tree holds >10k links, and eager
	// fmt.Sprintf names dominate construction cost for no benefit until a
	// human-facing surface (metrics, errors) actually asks for one.
	f.links = make([]*link, 0, 2*numNodes+2*(n-1)*f.width*k)
	for p := 0; p < numNodes; p++ {
		f.inject[p] = f.newLink(lkInject, 0, 0, p)
		f.eject[p] = f.newLink(lkEject, 0, 0, p)
		f.links = append(f.links, f.inject[p], f.eject[p])
	}
	f.up = make([][]*link, n-1)
	f.down = make([][]*link, n-1)
	for l := 0; l < n-1; l++ {
		f.up[l] = make([]*link, f.width*k)
		f.down[l] = make([]*link, f.width*k)
		for w := 0; w < f.width; w++ {
			for j := 0; j < k; j++ {
				f.up[l][w*k+j] = f.newLink(lkUp, l, w, j)
				f.down[l][w*k+j] = f.newLink(lkDown, l, w, j)
				f.links = append(f.links, f.up[l][w*k+j], f.down[l][w*k+j])
			}
		}
	}
	return f
}

// Levels returns the number of switch levels in the tree.
func (f *FatTree) Levels() int { return f.n }

// NumLinks returns the number of directed links in the fabric, including
// per-node injection and ejection links.
func (f *FatTree) NumLinks() int { return len(f.links) }

// linkMetrics is a fat-tree link's metric table.
var linkMetrics = stats.NewMetrics(
	stats.TimeOf("busy", func(l *link) sim.Time { return l.busyNs }),
	stats.CounterOf("credit_stalls", func(l *link) *stats.Counter { return &l.stallCnt }),
	stats.GaugeOf("queued", func(l *link) int64 { return int64(len(l.queues[High]) + len(l.queues[Low])) }),
)

// treeLinks is the family of a fat tree's links, each named by its place in
// the tree.
var treeLinks = stats.NewFamily(linkMetrics,
	func(f *FatTree) int { return len(f.links) },
	func(f *FatTree, i int) string { return f.links[i].name() },
	func(f *FatTree, i int) *link { return f.links[i] })

// RegisterMetrics registers the fabric's counters under r, and its links
// under r/link as one family.
func (f *FatTree) RegisterMetrics(r *stats.Registry) {
	edgeMetrics.Register(r, &f.edge)
	treeLinks.Register(r.Child("link"), f)
}

// LevelStalls aggregates the credit-stall telemetry of every link at one
// position in the tree: the injection links, one up or down switch level, or
// the ejection links. It is the per-depth view of the same per-link
// `credit_stalls` counters the metrics registry exports — coarse enough to
// stay readable at 1024 nodes, where the tree holds >10k links.
type LevelStalls struct {
	Level     string // "inject", "up-l3".."up-l0", "dn-l0".."dn-l3", "eject"
	Links     int    // links aggregated into this row
	Stalls    uint64 // stall onsets (packets that found their lane full)
	StalledNs uint64 // total nanoseconds those packets waited for a credit
}

// StallsByLevel groups per-link credit stalls by tree depth, in hop order
// for a maximal route: inject, the up levels from leaf-adjacent to root
// (up-l(n-2) .. up-l0), the down levels from root to leaf (dn-l0 ..
// dn-l(n-2)), eject. Rows are emitted for every level even when zero, so
// backpressure propagating toward the senders reads as a gradient down the
// table (tree saturation: hotspot congestion fills the ejection lane first,
// then marches up the descent levels and across the root into the ascent).
func (f *FatTree) StallsByLevel() []LevelStalls {
	rows := make([]LevelStalls, 0, 2*f.n)
	row := func(level string, match func(*link) bool) {
		r := LevelStalls{Level: level}
		for _, l := range f.links {
			if !match(l) {
				continue
			}
			r.Links++
			r.Stalls += l.stallCnt.Events
			r.StalledNs += l.stallCnt.Amount
		}
		rows = append(rows, r)
	}
	row("inject", func(l *link) bool { return l.kind == lkInject })
	for lvl := f.n - 2; lvl >= 0; lvl-- {
		lvl := lvl
		row(fmt.Sprintf("up-l%d", lvl), func(l *link) bool {
			return l.kind == lkUp && int(l.lvl) == lvl
		})
	}
	for lvl := 0; lvl <= f.n-2; lvl++ {
		lvl := lvl
		row(fmt.Sprintf("dn-l%d", lvl), func(l *link) bool {
			return l.kind == lkDown && int(l.lvl) == lvl
		})
	}
	row("eject", func(l *link) bool { return l.kind == lkEject })
	return rows
}

// InFlight counts the packets currently buffered inside the fabric: lane
// queues, serialized packets blocked on downstream admission, and credit
// waiters, across every link. Once the event queue has drained (no
// serialization or flight callbacks outstanding) this is exactly the number
// of injected-but-undelivered packets, which is what the chaos harness's
// credit-conservation oracle balances against the injector's drop counters.
func (f *FatTree) InFlight() int {
	n := 0
	for _, l := range f.links {
		for pr := Priority(0); pr < numPriorities; pr++ {
			n += len(l.queues[pr]) + len(l.waiters[pr])
			if l.blocked[pr] != nil {
				n++
			}
		}
	}
	return n
}

// CheckLanes verifies the finite-buffer invariant: no link lane ever holds
// more than the configured LaneCapacity packets. A violation means the
// credit protocol admitted past a full buffer — exactly the corruption the
// chaos harness exists to catch.
func (f *FatTree) CheckLanes() error {
	for _, l := range f.links {
		for pr := Priority(0); pr < numPriorities; pr++ {
			if got := len(l.queues[pr]); got > f.cfg.LaneCapacity {
				return fmt.Errorf("arctic: link %s lane %d holds %d packets (capacity %d)",
					l.name(), pr, got, f.cfg.LaneCapacity)
			}
		}
	}
	return nil
}

// digit returns base-k digit at position pos (0 = most significant of n
// digits) of leaf address p.
//
//voyager:noalloc
func (f *FatTree) digit(p, pos int) int {
	div := 1
	for i := 0; i < f.n-1-pos; i++ {
		div *= Radix
	}
	return (p / div) % Radix
}

// setWordDigit returns word w with its digit at position pos (0 = most
// significant of n-1 digits) replaced by v.
//
//voyager:noalloc
func (f *FatTree) setWordDigit(w, pos, v int) int {
	div := 1
	for i := 0; i < f.n-2-pos; i++ {
		div *= Radix
	}
	old := (w / div) % Radix
	return w + (v-old)*div
}

// bestUp picks the up-link out of switch (l+1, w) with the least queued
// work (ties broken by port index, keeping the simulation deterministic).
//
//voyager:noalloc
func (f *FatTree) bestUp(l, w int) int {
	best, bestLoad := 0, int(^uint(0)>>1)
	for j := 0; j < Radix; j++ {
		lk := f.up[l][w*Radix+j]
		load := len(lk.queues[High]) + len(lk.queues[Low])
		if lk.ser != nil {
			load++
		}
		if load < bestLoad {
			best, bestLoad = j, load
		}
	}
	return best
}

// HopCount returns the number of links a packet from src to dst traverses
// (including injection and ejection links): as many up links as down links
// around the nearest common ancestor.
func (f *FatTree) HopCount(src, dst int) int { return 2*(f.n-1-f.lcaLevel(src, dst)) + 2 }

// launch enters a (fault-approved) packet into the routed fabric at the
// leaf switch above its source, over the source's injection link.
//
//voyager:noalloc
func (f *FatTree) launch(pkt *Packet) {
	pkt.lvl, pkt.word = int16(f.n-1), int32(pkt.Src/Radix)
	pkt.climb = int16(f.n - 1 - f.lcaLevel(pkt.Src, pkt.Dst))
	pkt.readyAt = 0
	f.inject[pkt.Src].enqueueOrWait(pkt, nil)
}

// forward moves pkt, just serialized over from, on by one hop, choosing the
// next link from the packet's position the way an Arctic router reads the
// header: up while it still climbs toward the nearest common ancestor (on
// the source's last digit, or under Adaptive on the least-loaded up link
// as the switch sees it now), then down on the destination's digits, then
// out the ejection link. from stays blocked until that link admits pkt.
//
//voyager:noalloc
func (f *FatTree) forward(pkt *Packet, from *link) {
	var next *link
	lvl, word := int(pkt.lvl), int(pkt.word)
	switch {
	case pkt.climb > 0:
		j := f.digit(pkt.Src, f.n-1)
		if f.cfg.Adaptive {
			j = f.bestUp(lvl-1, word)
		}
		lvl--
		pkt.climb--
		next = f.up[lvl][word*Radix+j]
		pkt.lvl, pkt.word = int16(lvl), int32(f.setWordDigit(word, lvl, j))
	case lvl < f.n-1:
		i := f.digit(pkt.Dst, lvl)
		next = f.down[lvl][word*Radix+i]
		pkt.lvl, pkt.word = int16(lvl+1), int32(f.setWordDigit(word, lvl, i))
	default:
		next = f.eject[pkt.Dst]
	}
	pkt.readyAt = f.eng.Now() + f.cfg.RouterLatency
	next.enqueueOrWait(pkt, from)
}

// InjectReady reports whether node's injection link can take more traffic
// on the given priority lane (the NIU throttles its transmit formatting on
// this signal, independently per lane so High traffic bypasses a wedged
// Low lane).
func (f *FatTree) InjectReady(node int, pri Priority) bool {
	return f.inject[node].injectReady(pri)
}

// SetReadyHook registers fn to run whenever node's injection link regains
// room after being full.
func (f *FatTree) SetReadyHook(node int, fn func()) { f.readyHooks[node] = fn }

// lcaLevel returns the nearest-common-ancestor switch level of two leaves.
//
//voyager:noalloc
func (f *FatTree) lcaLevel(src, dst int) int {
	for pos := 0; pos < f.n-1; pos++ {
		if f.digit(src, pos) != f.digit(dst, pos) {
			return pos
		}
	}
	return f.n - 1
}

// Poke retries deliveries previously refused by node's endpoint.
func (f *FatTree) Poke(node int) { f.eject[node].poke() }

// serTime returns link serialization time for a packet of size bytes,
// rounded up to whole flits.
//
//voyager:noalloc
func (f *FatTree) serTime(size int) sim.Time {
	flits := (size + FlitBytes - 1) / FlitBytes
	return sim.Time(flits) * f.cfg.FlitTime
}

// link is one directed channel with two priority lanes, a serializer, and
// finite buffering: each lane admits at most the configured LaneCapacity
// packets; upstream links hold their lane blocked until downstream admits
// their packet, so endpoint backpressure propagates hop by hop toward the
// sender (tree saturation) — the behaviour behind the paper's warning that
// the Hold policy "can lead to deadlocking the network".
type link struct {
	f *FatTree
	// Compact identity: kind plus either the owning node (inject/eject) or
	// the (level, word, port) coordinate (up/down). The human-readable name
	// is derived on demand by name().
	kind   uint8
	lvl    int16
	port   int16
	word   int32
	node   int32 // owning node for inject/eject links
	queues [numPriorities][]*Packet
	// blocked holds a serialized packet awaiting downstream admission (or
	// endpoint acceptance); its lane cannot serialize further packets.
	blocked [numPriorities]*Packet
	// waiters are upstream packets waiting for a lane slot here.
	waiters [numPriorities][]*Packet
	ser     *Packet // the packet on the wire; nil while the link is idle

	// Event callbacks, bound on the link's first kick so that a link which
	// never carries traffic allocates none.
	kickFn, serDoneFn func()

	// Per-link telemetry: wire occupancy, and credit stalls — packets that
	// found their lane full and had to wait for a slot. stallCnt.Events
	// counts stall onsets (the window the backpressure bit), stallCnt.Amount
	// accumulates the nanoseconds those packets spent waiting (credited at
	// admission). The windowed sampler turns these into the per-link
	// per-window utilization and credit-stall series voyager-stats renders.
	busyNs   sim.Time
	stallCnt stats.Counter
}

// Link kinds (see link.kind).
const (
	lkInject = iota
	lkEject
	lkUp
	lkDown
)

func (f *FatTree) newLink(kind, lvl, word, portOrNode int) *link {
	l := &link{f: f, kind: uint8(kind), lvl: int16(lvl), word: int32(word)}
	if kind == lkInject || kind == lkEject {
		l.node = int32(portOrNode)
	} else {
		l.port = int16(portOrNode)
	}
	return l
}

// name renders the link's registry/error name from its compact identity.
func (l *link) name() string {
	switch l.kind {
	case lkInject:
		return fmt.Sprintf("inj%d", l.node)
	case lkEject:
		return fmt.Sprintf("ej%d", l.node)
	case lkUp:
		return fmt.Sprintf("up-l%d-w%d-j%d", l.lvl, l.word, l.port)
	default:
		return fmt.Sprintf("dn-l%d-w%d-i%d", l.lvl, l.word, l.port)
	}
}

// enqueueOrWait admits the packet if the lane has room, otherwise registers
// it as a credit waiter; from (if non-nil) stays blocked until admission.
//
//voyager:noalloc
func (l *link) enqueueOrWait(pkt *Packet, from *link) {
	pr := pkt.Priority
	if len(l.queues[pr]) < l.f.cfg.LaneCapacity {
		l.queues[pr] = append(l.queues[pr], pkt) //voyager:alloc-ok(amortized: the lane grows once to LaneCapacity and is reused)
		if from != nil {
			from.unblock(pr)
		}
		l.maybeReady()
		l.kick()
		return
	}
	l.stallCnt.Events++
	pkt.from, pkt.since = from, l.f.eng.Now()
	l.waiters[pr] = append(l.waiters[pr], pkt) //voyager:alloc-ok(amortized: waiter list backing array is retained)
}

// unblock clears the lane's downstream-wait state and restarts the
// serializer.
//
//voyager:noalloc
func (l *link) unblock(pr Priority) {
	l.blocked[pr] = nil
	l.kick()
}

// kick starts serializing the next eligible packet, High lane first; a lane
// with a packet still awaiting downstream admission (or endpoint
// acceptance) is skipped.
//
//voyager:noalloc
func (l *link) kick() {
	if l.ser != nil {
		return
	}
	if l.kickFn == nil {
		l.kickFn, l.serDoneFn = l.kick, l.serDone //voyager:alloc-ok(one-time method binding on the link's first kick)
	}
	for pr := Priority(0); pr < numPriorities; pr++ {
		if l.blocked[pr] != nil || len(l.queues[pr]) == 0 {
			continue
		}
		pkt := l.queues[pr][0]
		if pkt.readyAt > l.f.eng.Now() {
			// The head is still in the router pipeline; try again when it
			// emerges (the other lane may proceed meanwhile).
			l.f.eng.At(pkt.readyAt, l.kickFn)
			continue
		}
		l.queues[pr] = sim.PopFront(l.queues[pr])
		l.ser = pkt
		l.admitWaiter(pr)
		ser := l.f.serTime(pkt.Size)
		l.busyNs += ser
		l.f.eng.Schedule(ser, l.serDoneFn)
		return
	}
}

// serDone runs when the wire is done with the packet: the link frees up,
// the packet moves on, and the next one may start.
//
//voyager:noalloc
func (l *link) serDone() {
	pkt := l.ser
	l.ser = nil
	l.afterSer(pkt)
	l.kick()
}

// admitWaiter moves one credit waiter into the freed lane slot.
//
//voyager:noalloc
func (l *link) admitWaiter(pr Priority) {
	if len(l.waiters[pr]) == 0 {
		l.maybeReady()
		return
	}
	pkt := l.waiters[pr][0]
	l.waiters[pr] = sim.PopFront(l.waiters[pr])
	l.stallCnt.Amount += uint64(l.f.eng.Now() - pkt.since)
	l.queues[pr] = append(l.queues[pr], pkt) //voyager:alloc-ok(amortized: the slot just freed keeps the lane within its capacity)
	if pkt.from != nil {
		pkt.from.unblock(pr)
	}
	l.maybeReady()
}

// afterSer runs when the wire is done with the packet: deliver (ejection)
// or advance toward the next hop, blocking the lane until it is accepted.
//
//voyager:noalloc
func (l *link) afterSer(pkt *Packet) {
	if l.kind != lkEject {
		l.blocked[pkt.Priority] = pkt
		l.f.forward(pkt, l)
		return
	}
	// A dead destination's packet dies here and leaves the lane free.
	if !l.f.tryDeliver(pkt) {
		l.blocked[pkt.Priority] = pkt
	}
}

// poke retries endpoint delivery of stalled packets (ejection links).
//
//voyager:noalloc
func (l *link) poke() {
	progressed := false
	for pr := Priority(0); pr < numPriorities; pr++ {
		if pkt := l.blocked[pr]; pkt != nil && l.f.tryDeliver(pkt) {
			l.blocked[pr] = nil
			progressed = true
		}
	}
	if progressed {
		l.kick()
	}
}

// maybeReady fires the node's injection-ready hook when an injection link
// regains room (the NIU-side flow control signal).
//
//voyager:noalloc
func (l *link) maybeReady() {
	if l.kind != lkInject {
		return
	}
	if hook := l.f.readyHooks[l.node]; hook != nil &&
		(l.injectReady(High) || l.injectReady(Low)) {
		hook()
	}
}

// injectReady reports whether the lane can take another packet.
//
//voyager:noalloc
func (l *link) injectReady(pr Priority) bool {
	return len(l.queues[pr]) < l.f.cfg.LaneCapacity && len(l.waiters[pr]) == 0
}
