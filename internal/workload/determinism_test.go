package workload

// The regression test behind the determinism contract: everything the lint
// suite (internal/lint, cmd/voyager-vet) exists to protect. Two runs with
// the same seed must be bit-identical — same event count, same final stats
// (float-for-float), same FNV hash of the delivery trace — and a different
// seed must actually change the outcome, proving the hash has teeth.

import (
	"bytes"
	"reflect"
	"testing"

	"startvoyager/internal/core"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
	"startvoyager/internal/trace"
)

func detConfig(seed int64) Config {
	return Config{
		Nodes:       4,
		Pattern:     Hotspot, // randomized destinations exercise the RNG path
		Messages:    40,
		PayloadSize: 16,
		Think:       2 * sim.Microsecond,
		HotFraction: 70,
		Seed:        seed,
	}
}

func TestSameSeedBitIdentical(t *testing.T) {
	r1 := Run(detConfig(42))
	r2 := Run(detConfig(42))

	if r1.Events != r2.Events {
		t.Errorf("event counts differ between same-seed runs: %d vs %d", r1.Events, r2.Events)
	}
	if r1.TraceHash != r2.TraceHash {
		t.Errorf("trace hashes differ between same-seed runs: %#x vs %#x", r1.TraceHash, r2.TraceHash)
	}
	// DeepEqual compares every field, including the float stats, exactly —
	// "close enough" would hide accumulation-order drift.
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("results differ between same-seed runs:\n  run 1: %+v\n  run 2: %+v", r1, r2)
	}
}

func TestDifferentSeedDiverges(t *testing.T) {
	r1 := Run(detConfig(42))
	r3 := Run(detConfig(43))

	if r1.TraceHash == r3.TraceHash {
		t.Errorf("trace hash %#x identical across different seeds; hash is not sensitive to the schedule",
			r1.TraceHash)
	}
	if r1.Duration == r3.Duration && r1.LatencyP50 == r3.LatencyP50 && r1.LatencyP99 == r3.LatencyP99 {
		t.Errorf("all timing stats identical across different seeds: %+v", r1)
	}
}

// observedRun executes one instrumented run and renders the Perfetto trace
// and metrics dump to bytes.
func observedRun(t *testing.T, seed int64) (Result, []byte, []byte) {
	t.Helper()
	var tbuf *trace.Buffer
	var mach *core.Machine
	res := RunInstrumented(detConfig(seed), func(m *core.Machine) {
		mach = m
		tbuf = m.Trace(1 << 16)
	})
	var traceOut, metricsOut bytes.Buffer
	if err := tbuf.WritePerfetto(&traceOut); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}
	if err := mach.Metrics().WriteJSON(&metricsOut, mach.Eng.Now()); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return res, traceOut.Bytes(), metricsOut.Bytes()
}

// TestObservedOutputsDeterministic extends the same-seed contract to the
// observability layer: two instrumented runs must produce byte-identical
// Perfetto traces and metrics dumps, and a different seed must change the
// trace (so the comparison is not vacuous).
func TestObservedOutputsDeterministic(t *testing.T) {
	_, trace1, metrics1 := observedRun(t, 42)
	_, trace2, metrics2 := observedRun(t, 42)
	if !bytes.Equal(trace1, trace2) {
		t.Error("Perfetto traces differ between same-seed runs")
	}
	if !bytes.Equal(metrics1, metrics2) {
		t.Error("metrics dumps differ between same-seed runs")
	}

	_, trace3, _ := observedRun(t, 43)
	if bytes.Equal(trace1, trace3) {
		t.Error("Perfetto trace identical across different seeds; trace is not capturing the schedule")
	}
}

// TestPathReportDeterministic extends the same-seed contract to the causal
// path analyzer: two instrumented runs must render byte-identical waterfall
// reports, a different seed must change the report, and the workload's
// message traffic must reconstruct into chains with no orphans.
func TestPathReportDeterministic(t *testing.T) {
	render := func(seed int64) []byte {
		var tbuf *trace.Buffer
		RunInstrumented(detConfig(seed), func(m *core.Machine) {
			tbuf = m.Trace(1 << 18)
		})
		if d := tbuf.Stats().Dropped; d != 0 {
			t.Fatalf("trace ring dropped %d events", d)
		}
		a := trace.AnalyzePaths(tbuf.Events())
		if len(a.Msgs) == 0 {
			t.Fatal("no traced messages in instrumented workload")
		}
		if a.Orphans != 0 {
			t.Fatalf("%d orphan chains", a.Orphans)
		}
		var b bytes.Buffer
		if err := a.WriteWaterfall(&b); err != nil {
			t.Fatalf("WriteWaterfall: %v", err)
		}
		return b.Bytes()
	}
	r1 := render(42)
	r2 := render(42)
	if !bytes.Equal(r1, r2) {
		t.Error("path reports differ between same-seed runs")
	}
	r3 := render(43)
	if bytes.Equal(r1, r3) {
		t.Error("path report identical across different seeds; analysis is not capturing the schedule")
	}
}

// TestObserverZeroTimingImpact: attaching the observability layer must not
// perturb the simulation — an instrumented run and a bare run with the same
// seed report identical duration, event count, and delivery-trace hash.
func TestObserverZeroTimingImpact(t *testing.T) {
	bare := Run(detConfig(42))
	observed, _, _ := observedRun(t, 42)
	if bare.Duration != observed.Duration {
		t.Errorf("observer changed simulated duration: %v vs %v", bare.Duration, observed.Duration)
	}
	if bare.Events != observed.Events {
		t.Errorf("observer changed engine event count: %d vs %d", bare.Events, observed.Events)
	}
	if bare.TraceHash != observed.TraceHash {
		t.Errorf("observer changed the delivery trace: %#x vs %#x", bare.TraceHash, observed.TraceHash)
	}
	if !reflect.DeepEqual(bare, observed) {
		t.Errorf("observer changed run results:\n  bare:     %+v\n  observed: %+v", bare, observed)
	}
}

// sampledRun executes one instrumented run with both the trace buffer and
// the windowed telemetry sampler attached, and renders the metrics dump and
// the voyager-series/v1 export to bytes.
func sampledRun(t *testing.T, seed int64) (Result, []byte, []byte) {
	t.Helper()
	var mach *core.Machine
	var sampler *stats.Sampler
	res := RunInstrumented(detConfig(seed), func(m *core.Machine) {
		mach = m
		m.Trace(1 << 16)
		sampler = m.Series(20 * sim.Microsecond)
	})
	sampler.Finish()
	var metricsOut, seriesOut bytes.Buffer
	if err := mach.Metrics().WriteJSON(&metricsOut, mach.Eng.Now()); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := sampler.WriteJSON(&seriesOut, nil); err != nil {
		t.Fatalf("series WriteJSON: %v", err)
	}
	return res, metricsOut.Bytes(), seriesOut.Bytes()
}

// TestSamplerZeroTimingImpact extends the zero-impact contract to the
// windowed sampler: a run with the sampler scraping every 5us must report
// results bit-identical to a bare run, and its metrics dump must be
// byte-identical to a sampler-free instrumented run — the sampler neither
// schedules events nor registers metrics.
func TestSamplerZeroTimingImpact(t *testing.T) {
	bare := Run(detConfig(42))
	sampled, metricsOn, _ := sampledRun(t, 42)
	if bare.Duration != sampled.Duration {
		t.Errorf("sampler changed simulated duration: %v vs %v", bare.Duration, sampled.Duration)
	}
	if bare.Events != sampled.Events {
		t.Errorf("sampler changed engine event count: %d vs %d", bare.Events, sampled.Events)
	}
	if bare.TraceHash != sampled.TraceHash {
		t.Errorf("sampler changed the delivery trace: %#x vs %#x", bare.TraceHash, sampled.TraceHash)
	}
	if !reflect.DeepEqual(bare, sampled) {
		t.Errorf("sampler changed run results:\n  bare:    %+v\n  sampled: %+v", bare, sampled)
	}
	_, _, metricsOff := observedRun(t, 42)
	if !bytes.Equal(metricsOn, metricsOff) {
		t.Error("metrics dump differs with the sampler attached; sampling must not touch the registry")
	}
}

// TestSeriesExportDeterministic extends the same-seed contract to the series
// export: byte-identical across same-seed runs, divergent across seeds.
func TestSeriesExportDeterministic(t *testing.T) {
	_, _, series1 := sampledRun(t, 42)
	_, _, series2 := sampledRun(t, 42)
	if !bytes.Equal(series1, series2) {
		t.Error("series exports differ between same-seed runs")
	}
	_, _, series3 := sampledRun(t, 43)
	if bytes.Equal(series1, series3) {
		t.Error("series export identical across different seeds; windows are not capturing the schedule")
	}
}

func TestSeedForDecorrelated(t *testing.T) {
	// Neighboring (seed, id) pairs must not produce related seeds: the old
	// seed+id*7919 scheme made run seeds 42 and 42+7919 share node streams.
	seen := make(map[int64]bool)
	for seed := int64(0); seed < 8; seed++ {
		for id := 0; id < 8; id++ {
			s := seedFor(seed, id)
			if seen[s] {
				t.Fatalf("seedFor collision at seed=%d id=%d", seed, id)
			}
			seen[s] = true
		}
	}
	if seedFor(42, 1)-seedFor(42, 0) == seedFor(42, 2)-seedFor(42, 1) {
		t.Error("seedFor produces arithmetically related per-node seeds")
	}
}
