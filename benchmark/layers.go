package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strings"

	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// layerOf maps every package under internal/ to the layer its host time and
// counters are reported under. The paper's four layers (library,
// programmable NIU = firmware, core NIU = niu, network) sit on the engine;
// memsys, assembly and observability are the rest of the machine model.
// Drivers and checkers that are not part of the simulated machine belong to
// the harness, as does this benchmark's own code.
var layerOf = map[string]string{
	"sim": "engine",

	"core":      "library",
	"mpi":       "library",
	"workload":  "library",
	"blockxfer": "library",

	"firmware": "firmware",

	"niu/ctrl": "niu",
	"niu/biu":  "niu",
	"niu/txrx": "niu",
	"niu/sram": "niu",

	"bus":   "memsys",
	"cache": "memsys",
	"mem":   "memsys",

	"arctic": "network",
	"fault":  "network",

	"cluster": "assembly",
	"node":    "assembly",

	"stats": "observability",
	"trace": "observability",
	"prof":  "observability",

	"bench":    "harness",
	"chaos":    "harness",
	"lint":     "harness",
	"memcheck": "harness",
}

// buckets lists, in report order, everything a CPU sample can be billed to:
// the layers, then the Go runtime's own work that no repo frame explains.
var buckets = []string{"engine", "library", "firmware", "niu", "memsys", "network",
	"assembly", "observability", "harness", "runtime.sched", "runtime.gc"}

const internalPrefix = "startvoyager/internal/"

// billTo returns the bucket a CPU sample is charged to, given its stack
// (function names, leaf first): the layer of the first repo frame, walking
// from the leaf. A sample with no repo frame is Go runtime work: garbage
// collection if a collector function is on the stack, else scheduling —
// which here is the Proc handoff, because sim.Proc is the only code that
// switches goroutines. Profiling itself (runtime/pprof) is harness work, as
// is this package, named "main" in the command and by its import path in
// its tests.
func billTo(frames []string) (string, error) {
	for _, fn := range frames {
		switch {
		case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "startvoyager/benchmark."),
			strings.HasPrefix(fn, "runtime/pprof."):
			return "harness", nil
		case strings.HasPrefix(fn, "startvoyager/"):
			pkg := packageOf(fn)
			layer, ok := layerOf[strings.TrimPrefix(pkg, internalPrefix)]
			if !ok || !strings.HasPrefix(pkg, internalPrefix) {
				return "", fmt.Errorf("package %s has no layer; add it to layerOf", pkg)
			}
			return layer, nil
		}
	}
	for _, fn := range frames {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" ||
			fn == "runtime.bgscavenge" || fn == "runtime._GC" {
			return "runtime.gc", nil
		}
	}
	return "runtime.sched", nil
}

// packageOf returns the import path of a pprof function name such as
// "startvoyager/internal/niu/ctrl.(*Ctrl).launch". Type arguments, which
// may name other packages, are ignored.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// hostTime adds each CPU sample of a profile to the bucket it is billed to.
func hostTime(p *profile, ns map[string]int64) error {
	idx, err := p.valueIndex("cpu/nanoseconds")
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		b, err := billTo(s.frames)
		if err != nil {
			return err
		}
		ns[b] += s.values[idx]
	}
	return nil
}

// shareName is the per-layer metric name of a bucket's host share.
func shareName(bucket string) string {
	if strings.HasPrefix(bucket, "runtime.") {
		return bucket + "_share"
	}
	return bucket + ".host_share"
}

// counter is a sim.ProcProfiler that counts Proc handoffs and the API and
// firmware frames procs enter, with the simulated time spent inside each
// outermost frame. It is attached from outside through the engine's
// profiler hook and, like every profiler, changes no simulated outcome.
type counter struct {
	switches uint64
	procs    map[*sim.Proc]*procFrames
	frames   map[frameKey]*frameStat
}

type procFrames struct {
	depth int
	name  string
	start sim.Time
}

type frameKey struct{ component, name string }

type frameStat struct {
	calls uint64
	ns    sim.Time
}

func newCounter() *counter {
	return &counter{procs: map[*sim.Proc]*procFrames{}, frames: map[frameKey]*frameStat{}}
}

func (c *counter) ProcStart(sim.Time, *sim.Proc)                        {}
func (c *counter) ProcResume(sim.Time, *sim.Proc)                       { c.switches++ }
func (c *counter) ProcBlock(sim.Time, *sim.Proc, sim.BlockKind, string) {}
func (c *counter) ProcEnd(sim.Time, *sim.Proc)                          {}

func (c *counter) FramePush(p *sim.Proc, name string) {
	f := c.procs[p]
	if f == nil {
		f = &procFrames{}
		c.procs[p] = f
	}
	if f.depth == 0 {
		f.name, f.start = name, p.Now()
	}
	f.depth++
}

func (c *counter) FramePop(p *sim.Proc) {
	f := c.procs[p]
	f.depth--
	if f.depth > 0 {
		return
	}
	_, component := p.Origin()
	k := frameKey{component, f.name}
	s := c.frames[k]
	if s == nil {
		s = &frameStat{}
		c.frames[k] = s
	}
	s.calls++
	s.ns += p.Now() - f.start
}

// sum totals the outermost frames of one component whose name starts with
// prefix ("" for all).
func (c *counter) sum(component, prefix string) frameStat {
	var t frameStat
	for k, s := range c.frames {
		if k.component == component && strings.HasPrefix(k.name, prefix) {
			t.calls += s.calls
			t.ns += s.ns
		}
	}
	return t
}

// totals is a metrics-registry dump summed over nodes and links: the value
// registered at "node7/bus/retries" adds to sum["bus/retries"], and link
// metrics "net/link/<link>/busy" add to sum["net/link/busy"] with their
// maximum in max. A counter's amount is stored under its name plus
// ".amount".
type totals struct {
	sum, max map[string]int64
}

var nodeSegment = regexp.MustCompile(`^node[0-9]+/`)

// readTotals dumps reg through its public JSON export and sums it.
func readTotals(reg *stats.Registry, now sim.Time) (*totals, error) {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf, now); err != nil {
		return nil, err
	}
	var doc struct {
		Metrics map[string]struct {
			Kind   string
			Value  int64
			Events int64
			Amount int64
			BusyNs int64 `json:"busy_ns"`
			Ns     int64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("decoding metrics dump: %w", err)
	}
	t := &totals{sum: map[string]int64{}, max: map[string]int64{}}
	add := func(k string, v int64) {
		t.sum[k] += v
		if v > t.max[k] {
			t.max[k] = v
		}
	}
	for path, e := range doc.Metrics {
		k := nodeSegment.ReplaceAllString(path, "")
		if rest, ok := strings.CutPrefix(k, "net/link/"); ok {
			k = "net/link/" + rest[strings.IndexByte(rest, '/')+1:]
		}
		switch e.Kind {
		case "gauge":
			add(k, e.Value)
		case "counter":
			add(k, e.Events)
			add(k+".amount", e.Amount)
		case "meter":
			add(k, e.BusyNs)
		case "time":
			add(k, e.Ns)
		}
	}
	return t, nil
}

// ratio returns num/den, or false when den is zero and the ratio is
// undefined — such a metric is left out, never reported as 0.
func ratio(num, den float64) (float64, bool) {
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

// perLayer lists the per-layer metrics every workload reports, in
// BENCHMARK.json order. Metrics that apply to only some workloads (library,
// firmware, niu and memsys counters, which the bare fabric lacks, and
// per-operation-kind latencies) are printed as text by the traced run but
// are not part of this set.
var perLayer = []metric{
	{name: "engine.host_share", unit: "ratio"},
	{name: "engine.events", unit: "count"},
	{name: "engine.events_per_s", unit: "1/s"},
	{name: "engine.host_ns_per_event", unit: "ns"},
	{name: "engine.events_per_op", unit: "1/op"},
	{name: "engine.proc_switches", unit: "count"},
	{name: "runtime.sched_share", unit: "ratio"},
	{name: "runtime.gc_share", unit: "ratio"},
	{name: "library.host_share", unit: "ratio"},
	{name: "firmware.host_share", unit: "ratio"},
	{name: "niu.host_share", unit: "ratio"},
	{name: "memsys.host_share", unit: "ratio"},
	{name: "network.host_share", unit: "ratio"},
	{name: "network.delivered", unit: "count"},
	{name: "network.link_busy_frac_max", unit: "ratio"},
	{name: "network.credit_stalls", unit: "count"},
	{name: "network.stalled_ns", unit: "ns"},
	{name: "network.refusals", unit: "count"},
	{name: "network.stalled_ns.inject", unit: "ns"},
	{name: "network.stalled_ns.up-l0", unit: "ns"},
	{name: "network.stalled_ns.dn-l0", unit: "ns"},
	{name: "network.stalled_ns.eject", unit: "ns"},
	{name: "assembly.host_share", unit: "ratio"},
	{name: "observability.host_share", unit: "ratio"},
	{name: "harness.host_share", unit: "ratio"},
	{name: "harness.trace_overhead", unit: "ratio"},
}

// traced is what the traced repetitions leave for the per-layer report.
type traced struct {
	o        outcome
	c        *counter
	hostNs   map[string]int64 // CPU time per bucket, over every traced repetition
	runS     float64          // fastest untraced run time, interleaved with the traced runs
	overhead float64          // fastest traced run time / runS
	heap     float64          // machine heap bytes after construction
}

// layerMetrics derives every per-layer metric that applies to the workload.
func layerMetrics(w spec, t traced) ([]metric, error) {
	var ms []metric
	put := func(name, unit string, v float64) { ms = append(ms, metric{name, v, unit}) }
	putIf := func(name, unit string, v float64, ok bool) {
		if ok {
			put(name, unit, v)
		}
	}

	var total int64
	for _, b := range buckets {
		total += t.hostNs[b]
	}
	if total == 0 {
		return nil, fmt.Errorf("the CPU profile holds no samples; raise -seconds")
	}
	share := func(b string) float64 { return float64(t.hostNs[b]) / float64(total) }
	tot, err := readTotals(t.o.reg, t.o.simTime)
	if err != nil {
		return nil, err
	}
	sum := func(k string) float64 { return float64(tot.sum[k]) }
	machine := t.o.machine
	nodeTime := float64(w.nodes) * float64(t.o.simTime)

	events := float64(t.o.events)
	put("engine.host_share", "ratio", share("engine"))
	put("engine.events", "count", events)
	put("engine.events_per_s", "1/s", events/t.runS)
	put("engine.host_ns_per_event", "ns", t.runS*1e9/events)
	put("engine.events_per_op", "1/op", events/float64(t.o.ops))
	put("engine.proc_switches", "count", float64(t.c.switches))
	v, ok := ratio((share("engine")+share("runtime.sched"))*t.runS*1e9, float64(t.c.switches))
	putIf("engine.host_ns_per_switch", "ns", v, ok)
	put("runtime.sched_share", "ratio", share("runtime.sched"))
	put("runtime.gc_share", "ratio", share("runtime.gc"))

	put("library.host_share", "ratio", share("library"))
	if machine {
		put("library.calls", "count", float64(t.c.sum("aP", "").calls))
		put("library.ap_busy_frac", "ratio", sum("aP")/nodeTime)
		if polls := t.c.sum("aP", "TryRecv"); polls.calls > 0 {
			put("library.ap_wait_frac", "ratio", float64(polls.ns)/nodeTime)
			put("library.poll_hit_ratio", "ratio", sum("net/delivered")/float64(polls.calls))
		}
		kinds := make([]string, 0, len(t.o.kindP99))
		for k := range t.o.kindP99 {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			put("library."+k+"_lat_p99_ns", "ns", float64(t.o.kindP99[k]))
		}
	}

	put("firmware.host_share", "ratio", share("firmware"))
	if machine {
		put("firmware.messages", "count", sum("fw/messages"))
		put("firmware.sp_busy_frac", "ratio", sum("fw/sp_busy")/nodeTime)
		put("firmware.captures", "count", sum("fw/captures"))
		put("firmware.miss_served", "count", sum("fw/miss_served"))
	}

	put("niu.host_share", "ratio", share("niu"))
	if machine {
		put("niu.tx_messages", "count", sum("ctrl/tx_messages"))
		put("niu.rx_messages", "count", sum("ctrl/rx_messages"))
		put("niu.rx_holds", "count", sum("ctrl/rx_holds"))
		v, ok := ratio(sum("ctrl/rx_misses"), sum("ctrl/rx_messages"))
		putIf("niu.rx_miss_ratio", "ratio", v, ok)
		put("niu.ibus_busy_frac", "ratio", sum("ctrl/ibus_busy")/nodeTime)
	}

	put("memsys.host_share", "ratio", share("memsys"))
	if machine {
		put("memsys.bus_transactions", "count", sum("bus/transactions"))
		v, ok := ratio(sum("bus/retries"), sum("bus/transactions"))
		putIf("memsys.bus_retry_ratio", "ratio", v, ok)
		put("memsys.bus_busy_frac", "ratio", sum("bus/busy")/nodeTime)
		v, ok = ratio(sum("cache/hits"), sum("cache/hits")+sum("cache/misses"))
		putIf("memsys.cache_hit_ratio", "ratio", v, ok)
		put("memsys.snoop_invalidations", "count", sum("cache/snoop_invalidations"))
	}

	put("network.host_share", "ratio", share("network"))
	put("network.delivered", "count", sum("net/delivered"))
	put("network.link_busy_frac_max", "ratio", float64(tot.max["net/link/busy"])/float64(t.o.simTime))
	put("network.credit_stalls", "count", sum("net/link/credit_stalls"))
	put("network.stalled_ns", "ns", sum("net/link/credit_stalls.amount"))
	put("network.refusals", "count", sum("net/refusals"))
	for _, l := range t.o.tree.StallsByLevel() {
		put("network.stalled_ns."+l.Level, "ns", float64(l.StalledNs))
	}

	put("assembly.host_share", "ratio", share("assembly"))
	if machine {
		put("assembly.bytes_per_node", "B", t.heap/float64(w.nodes))
	}
	put("observability.host_share", "ratio", share("observability"))
	put("harness.host_share", "ratio", share("harness"))
	put("harness.trace_overhead", "ratio", t.overhead)
	return ms, nil
}
