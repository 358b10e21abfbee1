package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"

	"startvoyager/internal/arctic"
	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/memcheck"
	"startvoyager/internal/mpi"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
	"startvoyager/internal/workload"
)

// spec is one fixed-work workload.
type spec struct {
	name  string
	why   string
	nodes int // machine size
	work  int // per node: messages, S-COMA operations or collective rounds; per source: packets
	// build constructs the system the workload runs on, untraced; the
	// harness times it as set-up.
	build func(nodes int) any
	// run builds a fresh system, draws its inputs from in.seed and does the
	// fixed work, calling in.built between construction and the first
	// simulated event.
	run func(in runIn) outcome
}

// runIn is what the harness hands a workload's run.
type runIn struct {
	seed  int64
	nodes int
	work  int
	prof  sim.ProcProfiler // attached before any simulated work; nil when untraced
	built func()           // marks the end of construction
}

// outcome is the simulated result of one run, with the system it ran on.
type outcome struct {
	ops, failed int
	simTime     sim.Time // simulated completion time of the fixed work
	p50, p99    sim.Time // per-operation simulated latency
	kindP99     map[string]sim.Time
	digest      uint64 // hash over every simulated output; same inputs, same digest
	events      uint64
	errs        []string // why operations failed

	machine bool // a full machine (NIUs, firmware, memory system), not a bare fabric
	reg     *stats.Registry
	tree    *arctic.FatTree
}

// same reports whether two runs produced identical simulated outputs.
func (o outcome) same(p outcome) bool {
	if len(o.kindP99) != len(p.kindP99) {
		return false
	}
	for k, v := range o.kindP99 { //lint:ordered pure comparison, stops at any mismatch
		if p.kindP99[k] != v {
			return false
		}
	}
	return o.ops == p.ops && o.failed == p.failed && o.simTime == p.simTime &&
		o.p50 == p.p50 && o.p99 == p.p99 && o.digest == p.digest && o.events == p.events
}

var specs = []spec{
	{
		name:  "mp-uniform-64",
		why:   "Basic messages to uniform random peers: library, core NIU, aSRAM compose/flush and Proc handoff work; the sP sits idle",
		nodes: 64, work: 600,
		build: func(n int) any { return newMachine(n, nil) },
		run:   runMessages,
	},
	{
		name:  "shmem-scoma-64",
		why:   "S-COMA loads over a window twice the cache and stores to a hot page: sP directory protocol, capture and snooping work",
		nodes: 64, work: 200,
		build: func(n int) any { return newMachine(n, nil) },
		run:   runShmem,
	},
	{
		name:  "mpi-256",
		why:   "Allreduce, Bcast and Barrier rounds on 256 spin-polling ranks of a 4-level tree: handoffs and polls at scale, the largest set-up and machine heap",
		nodes: 256, work: 4,
		build: func(n int) any { return newMachine(n, nil) },
		run:   runMPI,
	},
	{
		name:  "fabric-hotspot-1024",
		why:   "open-loop packets on a bare 1024-node fat tree, a quarter to node 0: network and event heap only, no Procs to hand off",
		nodes: 1024, work: 100,
		build: func(n int) any { return newFabric(n, nil) },
		run:   runFabric,
	},
}

func newMachine(nodes int, prof sim.ProcProfiler) *core.Machine {
	cfg := cluster.DefaultConfig(nodes)
	cfg.Profiler = prof
	return core.NewMachineConfig(cfg)
}

// fabric is a bare fat tree on its own engine, with its metrics registered
// under net/ as in a full machine.
type fabric struct {
	eng  *sim.Engine
	tree *arctic.FatTree
	reg  *stats.Registry
}

func newFabric(nodes int, prof sim.ProcProfiler) *fabric {
	eng := sim.NewEngine()
	if prof != nil {
		eng.SetProfiler(prof)
	}
	f := &fabric{eng: eng, tree: arctic.NewFatTree(eng, nodes, arctic.DefaultConfig()), reg: stats.NewRegistry()}
	f.tree.RegisterMetrics(f.reg.Child("net"))
	return f
}

// mix derives an independent 64-bit value for stream i of a seed
// (SplitMix64), so per-node inputs do not depend on the order nodes run in.
func mix(seed int64, i int) uint64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// latencies collects per-operation simulated latencies by kind.
type latencies struct {
	all    stats.Samples
	byKind map[string]*stats.Samples
}

func (l *latencies) add(kind string, d sim.Time) {
	l.all.Add(float64(d))
	if l.byKind == nil {
		l.byKind = map[string]*stats.Samples{}
	}
	s := l.byKind[kind]
	if s == nil {
		s = &stats.Samples{}
		l.byKind[kind] = s
	}
	s.Add(float64(d))
}

func (l *latencies) fill(o *outcome) {
	o.p50 = sim.Time(l.all.Percentile(50))
	o.p99 = sim.Time(l.all.Percentile(99))
	o.kindP99 = map[string]sim.Time{}
	for k, s := range l.byKind { //lint:ordered each key is written once
		o.kindP99[k] = sim.Time(s.Percentile(99))
	}
}

// record hashes a list of integers into a run digest.
func record(h hash.Hash64, vals ...int64) {
	var b [8]byte
	for _, v := range vals {
		binary.BigEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

// runMessages is mp-uniform: a closed loop in which every aP sends in.work
// 64-byte Basic messages to uniform random peers with think time uniform in
// [0, 2 µs], draining its receive queue between sends (internal/workload).
// An operation is a delivered message.
func runMessages(in runIn) outcome {
	var m *core.Machine
	res := workload.RunInstrumented(workload.Config{
		Nodes: in.nodes, Pattern: workload.Uniform, Messages: in.work,
		PayloadSize: 64, Think: sim.Microsecond, Seed: in.seed,
	}, func(built *core.Machine) {
		m = built
		if in.prof != nil {
			m.Eng.SetProfiler(in.prof)
		}
		in.built()
	})
	o := outcome{
		ops: res.Sent, failed: res.Sent - res.Received,
		simTime: res.Duration, p50: res.LatencyP50, p99: res.LatencyP99,
		digest: res.TraceHash, events: res.Events,
		machine: true, reg: m.Metrics(), tree: m.Fabric.(*arctic.FatTree),
	}
	if o.failed != 0 {
		o.errs = append(o.errs, fmt.Sprintf("%d of %d messages not delivered", o.failed, res.Sent))
	}
	return o
}

// S-COMA workload shape: loads spread over the whole shared window, stores
// confined to a hot region at its start.
const (
	loadPercent = 80
	hotBytes    = 4 << 10
)

// runShmem is shmem-scoma: a closed loop in which every aP issues in.work
// 8-byte S-COMA operations back to back. 80% are loads at uniform random
// offsets of the 1 MB window, which is twice the 512 KB cache; 20% are
// stores of unique values to a 4 KB hot region. Loads outside the hot region
// must read zero; every hot word's history must pass the linearizability
// checks of internal/memcheck.
func runShmem(in runIn) outcome {
	m := newMachine(in.nodes, in.prof)
	window := int(m.Cfg.ScomaSize)
	hist := make([]memcheck.History, hotBytes/8)
	var lat latencies
	h := fnv.New64a()
	o := outcome{ops: in.nodes * in.work, machine: true, reg: m.Metrics(), tree: m.Fabric.(*arctic.FatTree)}
	done := 0
	for id := 0; id < in.nodes; id++ {
		id := id
		rng := rand.New(rand.NewSource(int64(mix(in.seed, id))))
		m.Go(id, "shmem", func(p *sim.Proc, a *core.API) {
			var b [8]byte
			for op := 0; op < in.work; op++ {
				start := p.Now()
				if rng.Intn(100) < loadPercent {
					off := uint32(rng.Intn(window/8) * 8)
					a.ScomaLoad(p, off, b[:])
					v := binary.BigEndian.Uint64(b[:])
					lat.add("load", p.Now()-start)
					record(h, int64(id), 0, int64(off), int64(v), int64(start), int64(p.Now()))
					if off < hotBytes {
						hist[off/8].AddRead(id, v, start, p.Now())
					} else if v != 0 {
						o.failed++
						o.errs = append(o.errs, fmt.Sprintf("node %d read %#x from never-written offset %#x", id, v, off))
					}
				} else {
					off := uint32(rng.Intn(hotBytes/8) * 8)
					v := uint64(id+1)<<32 | uint64(op+1)
					binary.BigEndian.PutUint64(b[:], v)
					a.ScomaStore(p, off, b[:])
					lat.add("store", p.Now()-start)
					record(h, int64(id), 1, int64(off), int64(v), int64(start), int64(p.Now()))
					hist[off/8].AddWrite(id, v, start, p.Now())
				}
			}
			done++
			if p.Now() > o.simTime {
				o.simTime = p.Now()
			}
		})
	}
	in.built()
	m.Run()

	for i := range hist {
		if err := hist[i].Check(0); err != nil {
			o.failed++
			o.errs = append(o.errs, fmt.Sprintf("hot word %#x: %v", 8*i, err))
		}
	}
	if done != in.nodes {
		o.failed += (in.nodes - done) * in.work
		o.errs = append(o.errs, fmt.Sprintf("%d of %d nodes did not finish", in.nodes-done, in.nodes))
	}
	lat.fill(&o)
	o.digest, o.events = h.Sum64(), m.Eng.Executed()
	return o
}

// runMPI is mpi: every rank runs in.work rounds of Allreduce (one float64),
// Bcast (64 bytes from rank 0) and Barrier, each after a think time uniform
// in [0, 2 µs]. Reduced sums and broadcast bytes are checked on every rank.
// An operation is one rank's collective call.
func runMPI(in runIn) outcome {
	m := newMachine(in.nodes, in.prof)
	rngs := make([]*rand.Rand, in.nodes)
	vals := make([]float64, in.nodes)
	var want float64
	for r := range rngs {
		rngs[r] = rand.New(rand.NewSource(int64(mix(in.seed, r))))
		vals[r] = float64(rngs[r].Intn(1000))
		want += vals[r]
	}
	const root = 0
	data := make([]byte, 64)
	rand.New(rand.NewSource(int64(mix(in.seed, in.nodes)))).Read(data)

	var lat latencies
	h := fnv.New64a()
	o := outcome{ops: 3 * in.nodes * in.work, machine: true, reg: m.Metrics(), tree: m.Fabric.(*arctic.FatTree)}
	fail := func(r int, msg string) {
		o.failed++
		o.errs = append(o.errs, fmt.Sprintf("rank %d: %s", r, msg))
	}
	done := 0
	for r := 0; r < in.nodes; r++ {
		r := r
		c := mpi.World(m, r)
		m.Go(r, "rank", func(p *sim.Proc, a *core.API) {
			timed := func(kind string, k int, op func()) {
				a.Compute(p, sim.Time(rngs[r].Int63n(2001))*sim.Nanosecond)
				start := p.Now()
				op()
				lat.add(kind, p.Now()-start)
				record(h, int64(r), int64(k), int64(start), int64(p.Now()))
			}
			for round := 0; round < in.work; round++ {
				timed("allreduce", 3*round, func() {
					if got := c.Allreduce(p, mpi.Sum, []float64{vals[r]}); len(got) != 1 || got[0] != want {
						fail(r, fmt.Sprintf("allreduce gave %v, want %v", got, want))
					}
				})
				timed("bcast", 3*round+1, func() {
					var mine []byte
					if r == root {
						mine = data
					}
					if got := c.Bcast(p, root, mine); !bytes.Equal(got, data) {
						fail(r, "bcast delivered wrong bytes")
					}
				})
				timed("barrier", 3*round+2, func() { c.Barrier(p) })
			}
			done++
			if p.Now() > o.simTime {
				o.simTime = p.Now()
			}
		})
	}
	in.built()
	m.Run()

	if done != in.nodes {
		o.failed += 3 * (in.nodes - done) * in.work
		o.errs = append(o.errs, fmt.Sprintf("%d of %d ranks did not finish", in.nodes-done, in.nodes))
	}
	lat.fill(&o)
	o.digest, o.events = h.Sum64(), m.Eng.Executed()
	return o
}

// Fabric hotspot shape: one 96-byte packet per source every packetGap, a
// hotPercent share of them aimed at node 0.
const (
	packetGap  = 1200 * sim.Nanosecond
	hotPercent = 25
	packetSize = arctic.MaxPacketBytes
)

// packetRec is one generated packet's input and delivery record.
type packetRec struct {
	id        int
	due       sim.Time
	delivered bool
}

// runFabric is fabric-hotspot: an open loop on a bare fat tree with no NIUs
// and no Procs. Every source injects in.work packets, one every packetGap
// from a seeded phase, whatever the backlog; a quarter go to node 0 and the
// rest to uniform random other nodes. Latency runs from each packet's due
// time, so injection backlog counts. Every packet must arrive exactly once,
// at its destination.
func runFabric(in runIn) outcome {
	f := newFabric(in.nodes, in.prof)
	eng, tree := f.eng, f.tree
	total := in.nodes * in.work
	recs := make([]packetRec, total)
	pkts := make([]arctic.Packet, total)
	for s := 0; s < in.nodes; s++ {
		rng := rand.New(rand.NewSource(int64(mix(in.seed, s))))
		phase := sim.Time(rng.Int63n(int64(packetGap)))
		for k := 0; k < in.work; k++ {
			i := s*in.work + k
			dst := 0
			if s == 0 || rng.Intn(100) >= hotPercent {
				for dst = rng.Intn(in.nodes); dst == s; dst = rng.Intn(in.nodes) {
				}
			}
			recs[i] = packetRec{id: i, due: phase + sim.Time(k)*packetGap}
			pkts[i] = arctic.Packet{Src: s, Dst: dst, Priority: arctic.Low, Size: packetSize, Payload: &recs[i]}
		}
	}

	var lat latencies
	h := fnv.New64a()
	o := outcome{ops: total, reg: f.reg, tree: tree}
	for n := 0; n < in.nodes; n++ {
		n := n
		tree.Attach(n, arctic.EndpointFunc(func(pkt *arctic.Packet) {
			r := pkt.Payload.(*packetRec)
			if pkt.Dst != n || r.delivered {
				o.failed++
				o.errs = append(o.errs, fmt.Sprintf("packet %d delivered again or to node %d", r.id, n))
				return
			}
			r.delivered = true
			lat.add("packet", eng.Now()-r.due)
			record(h, int64(r.id), int64(eng.Now()))
		}))
	}
	in.built()
	for s := 0; s < in.nodes; s++ {
		next := s * in.work
		last := next + in.work
		var fire func()
		fire = func() {
			tree.Inject(&pkts[next])
			if next++; next < last {
				eng.At(recs[next].due, fire)
			}
		}
		eng.At(recs[next].due, fire)
	}
	eng.Run()

	for i := range recs {
		if !recs[i].delivered {
			o.failed++
			o.errs = append(o.errs, fmt.Sprintf("packet %d never delivered", i))
		}
	}
	lat.fill(&o)
	o.simTime, o.digest, o.events = eng.Now(), h.Sum64(), eng.Executed()
	return o
}
