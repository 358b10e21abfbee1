package bench

import (
	"encoding/json"
	"io"
	"testing"

	"startvoyager/internal/core"
	"startvoyager/internal/sim"
)

// Microbenchmark suite for the simulation core's hot paths: event
// scheduling, Proc handoff and spawn, queue traffic, a whole-node message
// exchange, an aP spinning on an empty receive queue, and an S-COMA line
// changing owners. `voyager-bench -micro` (make bench-micro) runs it with
// testing.Benchmark and records events/sec and allocs/op in
// BENCH_micro.json, so the perf trajectory is versioned alongside the
// sim-time baseline in BENCH_baseline.json. Wall-clock numbers are
// host-dependent and are NOT diffed in CI — the allocation counts are the
// stable part (and are regression-tested in micro_test.go and
// internal/sim/bench_test.go).

// MicroResult is one microbenchmark outcome.
type MicroResult struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"` // for the engine benches: events/sec
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// microSuite lists the benchmarks in reporting order.
var microSuite = []struct {
	name string
	fn   func(*testing.B)
}{
	{"engine/schedule-step", benchEngineScheduleStep},
	{"proc/delay", benchProcDelay},
	{"proc/call-immediate", benchProcCallImmediate},
	{"proc/spawn", benchProcSpawn},
	{"queue/push-pop", benchQueuePushPop},
	{"node/basic-msg", benchNodeBasicMsg},
	{"node/empty-poll", benchNodeEmptyPoll},
	{"node/scoma-store", benchNodeScomaStore},
}

// MicroBench runs the suite and returns the results in suite order.
func MicroBench() []MicroResult {
	out := make([]MicroResult, 0, len(microSuite))
	for _, s := range microSuite {
		r := testing.Benchmark(s.fn)
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		out = append(out, MicroResult{
			Name:        s.name,
			N:           r.N,
			NsPerOp:     ns,
			OpsPerSec:   1e9 / ns,
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return out
}

// WriteMicro renders results as the BENCH_micro.json document.
func WriteMicro(w io.Writer, results []MicroResult) error {
	doc := struct {
		Schema  string        `json:"schema"`
		Results []MicroResult `json:"results"`
	}{Schema: "voyager-micro/v1", Results: results}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}

// scheduleFan keeps fanout self-rescheduling event chains alive on schedule,
// so the heap under test holds a realistic pending population rather than a
// single event. Deltas walk a fixed multiplicative pattern — deterministic,
// but not sorted, so pushes land throughout the heap.
func scheduleFan(schedule func(sim.Time, func()), fanout int) {
	for j := 0; j < fanout; j++ {
		k := uint64(j)
		var fn func()
		fn = func() {
			k += 2654435761
			schedule(sim.Time(k%4096)*sim.Nanosecond, fn)
		}
		schedule(sim.Time(j)*sim.Nanosecond, fn)
	}
}

// benchEngineScheduleStep measures the engine's schedule+step cycle with
// 256 pending chains: one op = pop the earliest event, run it, push its
// replacement. Steady state must be allocation-free.
func benchEngineScheduleStep(b *testing.B) {
	e := sim.NewEngine()
	scheduleFan(e.Schedule, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// benchProcDelay measures the full Proc context switch: Delay schedules a
// wakeup and yields to the engine, which resumes the coroutine — two
// coroutine switches per op.
func benchProcDelay(b *testing.B) {
	e := sim.NewEngine()
	n := b.N
	e.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Delay(10 * sim.Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// benchProcCallImmediate measures the synchronous-completion Call path (the
// common bus-issue shape): start invokes done inline, the Proc never yields.
func benchProcCallImmediate(b *testing.B) {
	e := sim.NewEngine()
	n := b.N
	immediate := func(done func()) { done() }
	e.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Call(immediate)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// benchProcSpawn measures a short Proc's whole life on a warm engine: spawn,
// one 10 ns Delay, end. Each spawn runs on the worker the previous one
// parked (Step, unlike Run, leaves it parked), so an op allocates only the
// Proc record.
func benchProcSpawn(b *testing.B) {
	e := sim.NewEngine()
	body := func(p *sim.Proc) { p.Delay(10 * sim.Nanosecond) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Spawn("p", body)
		for e.Step() {
		}
	}
}

// benchQueuePushPop measures producer/consumer coupling through sim.Queue:
// each item costs one Push+Signal and one blocking Pop (Cond wait + resume).
func benchQueuePushPop(b *testing.B) {
	e := sim.NewEngine()
	q := sim.NewQueue[int](e)
	n := b.N
	e.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			q.Pop(p)
		}
	})
	e.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			q.Push(i)
			p.Delay(10 * sim.Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// benchNodeBasicMsg is the whole-node benchmark: a two-node machine pushing
// 4-byte Basic messages through the full aP → CTRL → fabric → CTRL → aP
// pipeline (the Ext E resident-queue path), one delivered message per op.
func benchNodeBasicMsg(b *testing.B) {
	m := core.NewMachine(2)
	AllToOne{Mech: "basic", Count: b.N, Size: 4}.Spawn(m)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run()
}

// benchNodeEmptyPoll measures one empty receive try: node 0 blocks in
// RecvBasic and polls its empty Basic queue's producer pointer for b.N
// tries (one uncached bus read each) before node 1's message arrives. Steady
// state must be allocation-free.
func benchNodeEmptyPoll(b *testing.B) {
	m := core.NewMachine(2)
	bus0 := m.Nodes[0].Bus
	m.Go(0, "sink", func(p *sim.Proc, a *core.API) { a.RecvBasic(p) })
	m.Eng.RunUntil(sim.Microsecond) // warm the wait's pools
	b.ReportAllocs()
	b.ResetTimer()
	for end := bus0.Stats().Transactions + uint64(b.N); bus0.Stats().Transactions < end; {
		m.Eng.Step()
	}
	b.StopTimer()
	m.Go(1, "src", func(p *sim.Proc, a *core.API) { a.SendBasic(p, 0, []byte{1}) })
	m.Run()
}

// benchNodeScomaStore is the S-COMA ownership transfer: two aPs on a 2-node
// machine store in turn to one S-COMA line, so every store misses and the
// home directory (node 0) recalls the line from the other node and grants
// it to the storer through its remote command queue. One op is one store.
func benchNodeScomaStore(b *testing.B) {
	m := core.NewMachine(2)
	scomaTurns(m, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run()
}

// scomaTurns starts two aPs on m that store in turn to S-COMA line 0, n
// stores in all (without end if n < 0), handing the turn over through a
// queue each. It returns the count of stores done so far.
func scomaTurns(m *core.Machine, n int) *int {
	stores := new(int)
	turns := [2]*sim.Queue[int]{sim.NewQueue[int](m.Eng), sim.NewQueue[int](m.Eng)}
	for id := range turns {
		m.Go(id, "store", func(p *sim.Proc, a *core.API) {
			var b [8]byte
			for {
				turns[id].Pop(p)
				if *stores == n {
					turns[1-id].Push(0)
					return
				}
				b[0]++
				a.ScomaStore(p, 0, b[:])
				*stores++
				turns[1-id].Push(0)
			}
		})
	}
	turns[0].Push(0)
	return stores
}
