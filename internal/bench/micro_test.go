package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestWriteMicro pins the BENCH_micro.json document shape.
func TestWriteMicro(t *testing.T) {
	in := []MicroResult{{
		Name: "engine/schedule-step", N: 1000,
		NsPerOp: 125.0, OpsPerSec: 8e6, AllocsPerOp: 0, BytesPerOp: 0,
	}}
	var buf bytes.Buffer
	if err := WriteMicro(&buf, in); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string        `json:"schema"`
		Results []MicroResult `json:"results"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteMicro emitted invalid JSON: %v\n%s", err, buf.Bytes())
	}
	if doc.Schema != "voyager-micro/v1" {
		t.Fatalf("schema = %q, want voyager-micro/v1", doc.Schema)
	}
	if len(doc.Results) != 1 || doc.Results[0] != in[0] {
		t.Fatalf("results round-trip mismatch: %+v", doc.Results)
	}
}

// TestMicroSuiteContents pins the benchmark set: the engine schedule/step
// probe alongside the handoff, spawn, queue, whole-node, empty-poll and
// S-COMA store probes.
func TestMicroSuiteContents(t *testing.T) {
	want := []string{
		"engine/schedule-step",
		"proc/delay", "proc/call-immediate", "proc/spawn", "queue/push-pop",
		"node/basic-msg", "node/empty-poll", "node/scoma-store",
	}
	if len(microSuite) != len(want) {
		t.Fatalf("suite has %d benchmarks, want %d", len(microSuite), len(want))
	}
	for i, s := range microSuite {
		if s.name != want[i] {
			t.Errorf("suite[%d] = %q, want %q", i, s.name, want[i])
		}
		if s.fn == nil {
			t.Errorf("suite[%d] %q has nil fn", i, s.name)
		}
	}
}

// TestProcSpawnAllocs pins proc/spawn's allocation budget: a spawn on a
// warm engine allocates the Proc record and its two prebound callbacks and
// no coroutine. Before workers were pooled, the fresh iter.Pull coroutine
// of every spawn made it 15 allocations and 496 B.
func TestProcSpawnAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	r := testing.Benchmark(benchProcSpawn)
	const maxAllocs = 3  // measured: 3 allocs/op
	const maxBytes = 128 // measured: 128 B/op
	if got := r.AllocsPerOp(); got > maxAllocs {
		t.Errorf("proc/spawn allocates %d/op, budget is %d", got, maxAllocs)
	}
	if got := r.AllocedBytesPerOp(); got > maxBytes {
		t.Errorf("proc/spawn allocates %d B/op, budget is %d", got, maxBytes)
	}
	t.Logf("proc/spawn: %d allocs/op, %d B/op over %d ops", r.AllocsPerOp(), r.AllocedBytesPerOp(), r.N)
}
