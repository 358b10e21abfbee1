package bench

import (
	"bytes"
	"testing"

	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/fault"
	"startvoyager/internal/prof"
	"startvoyager/internal/sim"
)

// TestProfilerInert is the zero-timing-impact gate: the canonical
// observability run with the simulated-time profiler attached must export
// byte-identical trace and metrics artifacts, at the same simulated end
// time, as the unprofiled run. The profiler schedules no events and
// consumes no sequence, span, or message ids, so any divergence here means
// an accounting hook leaked into modeled state.
func TestProfilerInert(t *testing.T) {
	render := func(profiler *prof.Profiler) ([]byte, []byte, sim.Time) {
		m, tbuf := canonicalRun(profiler)
		var tr, me bytes.Buffer
		if err := tbuf.WritePerfetto(&tr); err != nil {
			t.Fatalf("WritePerfetto: %v", err)
		}
		if err := m.Metrics().WriteJSON(&me, m.Eng.Now()); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return tr.Bytes(), me.Bytes(), m.Eng.Now()
	}

	tPlain, mPlain, simPlain := render(nil)
	profiler := prof.New()
	tProf, mProf, simProf := render(profiler)

	if simPlain != simProf {
		t.Errorf("profiled run ended at %v, unprofiled at %v", simProf, simPlain)
	}
	if !bytes.Equal(tPlain, tProf) {
		t.Error("attaching the profiler changed the trace export")
	}
	if !bytes.Equal(mPlain, mProf) {
		t.Error("attaching the profiler changed the metrics export")
	}
	if !profiler.Finished() {
		t.Fatal("canonicalRun did not finish the profiler")
	}
	if doc := profiler.Doc(nil); doc.TotalNs == 0 {
		t.Error("profiled run accounted no proc time")
	}
}

// TestProfilerInertUnderFaults repeats the inertness check on a faulted
// reliable run — drops change scheduling-sensitive retransmission timing,
// so this would catch a profiler hook that perturbs event order only on
// recovery paths.
func TestProfilerInertUnderFaults(t *testing.T) {
	run := func(profiler *prof.Profiler) ([]byte, sim.Time) {
		plan, err := fault.ParsePlan("seed=7,drop=0.05")
		if err != nil {
			t.Fatalf("ParsePlan: %v", err)
		}
		cfg := cluster.DefaultConfig(3)
		cfg.Faults = plan
		if profiler != nil {
			cfg.Profiler = profiler
		}
		m := core.NewMachineConfig(cfg)
		const msgs = 20
		delivery := AllToOne{Mech: "reliable", Count: msgs, Size: 1}.Spawn(m)
		m.Run()
		if delivery.Received != 2*msgs || delivery.Failed != 0 {
			t.Fatalf("delivered %d of %d, %d sends failed", delivery.Received, 2*msgs, delivery.Failed)
		}
		if profiler != nil {
			profiler.Finish(m.Eng.Now())
		}
		var me bytes.Buffer
		if err := m.Metrics().WriteJSON(&me, m.Eng.Now()); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return me.Bytes(), m.Eng.Now()
	}

	mPlain, simPlain := run(nil)
	mProf, simProf := run(prof.New())
	if simPlain != simProf {
		t.Errorf("profiled faulted run ended at %v, unprofiled at %v", simProf, simPlain)
	}
	if !bytes.Equal(mPlain, mProf) {
		t.Error("attaching the profiler changed the faulted run's metrics export")
	}
}

// TestProfilerDeterministic: two identically configured profiled runs must
// export byte-identical profiles in all three formats.
func TestProfilerDeterministic(t *testing.T) {
	render := func() ([]byte, []byte, []byte) {
		profiler := prof.New()
		canonicalRun(profiler)
		doc := profiler.Doc(nil)
		var js, folded, pb bytes.Buffer
		if err := doc.WriteJSON(&js); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		if err := doc.WriteFolded(&folded); err != nil {
			t.Fatalf("WriteFolded: %v", err)
		}
		if err := doc.WritePprof(&pb); err != nil {
			t.Fatalf("WritePprof: %v", err)
		}
		return js.Bytes(), folded.Bytes(), pb.Bytes()
	}
	j1, f1, p1 := render()
	j2, f2, p2 := render()
	if !bytes.Equal(j1, j2) {
		t.Error("profile JSON differs across identical runs")
	}
	if !bytes.Equal(f1, f2) {
		t.Error("folded stacks differ across identical runs")
	}
	if !bytes.Equal(p1, p2) {
		t.Error("pprof protobuf differs across identical runs")
	}
}

// TestProfiledRunInvariants checks the accounting laws on a real machine
// run: every proc's buckets telescope exactly to its lifetime, and the
// tree's total self time equals the summed proc time (so all three export
// formats, which derive from the same tree, agree on the total).
func TestProfiledRunInvariants(t *testing.T) {
	profiler := prof.New()
	m, _ := canonicalRun(profiler)
	doc := profiler.Doc(nil)

	if doc.SimNs != int64(m.Eng.Now()) {
		t.Errorf("doc.SimNs = %d, run ended at %d", doc.SimNs, int64(m.Eng.Now()))
	}
	var lifetimes int64
	for _, p := range doc.Procs {
		life := p.EndNs - p.SpawnNs
		if got := p.BusyNs + p.CondNs + p.QueueNs; got != life {
			t.Errorf("proc %s: buckets sum to %d, lifetime is %d", p.Name, got, life)
		}
		lifetimes += life
	}
	if lifetimes != doc.TotalNs {
		t.Errorf("doc.TotalNs = %d, proc lifetimes sum to %d", doc.TotalNs, lifetimes)
	}
	var treeSelf int64
	var walk func(ns []*prof.TreeNode)
	walk = func(ns []*prof.TreeNode) {
		for _, n := range ns {
			treeSelf += n.SelfNs()
			walk(n.Children)
		}
	}
	walk(doc.Tree)
	if treeSelf != doc.TotalNs {
		t.Errorf("tree self time sums to %d, proc time is %d", treeSelf, doc.TotalNs)
	}
}

// benchProfiledNodeBasicMsg is benchNodeBasicMsg with the profiler
// attached: the steady-state accounting cost of the hot hooks (ProcResume,
// ProcBlock, FramePush/Pop, interval close) on the Basic message chain.
func benchProfiledNodeBasicMsg(b *testing.B) {
	cfg := cluster.DefaultConfig(2)
	cfg.Profiler = prof.New()
	m := core.NewMachineConfig(cfg)
	delivery := AllToOne{Mech: "basic", Count: b.N, Size: 32}.Spawn(m)
	b.ResetTimer()
	m.Run()
	b.StopTimer()
	if delivery.Received != b.N {
		b.Fatalf("delivered %d of %d", delivery.Received, b.N)
	}
}

// TestProfiledBasicMsgChainAllocs pins the allocation budget of the Basic
// message chain with the profiler attached. The profiler's steady state
// hits interned tree nodes and recycled stacks, so the allocation budget is
// the same as the unprofiled chain's (TestBasicMsgChainAllocs) plus nothing
// — any regression here means a hook started allocating per event.
func TestProfiledBasicMsgChainAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	r := testing.Benchmark(benchProfiledNodeBasicMsg)
	const maxAllocs = 6  // same budget as the unprofiled chain; measured: 4 allocs/op
	const maxBytes = 320 // measured: 232 B/op
	if got := r.AllocsPerOp(); got > maxAllocs {
		t.Errorf("profiled node/basic-msg allocates %d/op, budget is %d", got, maxAllocs)
	}
	if got := r.AllocedBytesPerOp(); got > maxBytes {
		t.Errorf("profiled node/basic-msg allocates %d B/op, budget is %d", got, maxBytes)
	}
	t.Logf("profiled node/basic-msg: %d allocs/op, %d B/op over %d ops",
		r.AllocsPerOp(), r.AllocedBytesPerOp(), r.N)
}
