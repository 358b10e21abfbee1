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
// probe alongside the handoff, queue, whole-node and empty-poll probes.
func TestMicroSuiteContents(t *testing.T) {
	want := []string{
		"engine/schedule-step",
		"proc/delay", "proc/call-immediate", "queue/push-pop", "node/basic-msg",
		"node/empty-poll",
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
