package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"startvoyager/internal/workload"
)

func TestCellsOrderAndEquivalence(t *testing.T) {
	fn := func(i int) int { return i*i + 1 }
	seq := Cells(100, 1, fn)
	par := Cells(100, 8, fn)
	for i := range seq {
		if seq[i] != fn(i) {
			t.Fatalf("sequential cell %d = %d, want %d", i, seq[i], fn(i))
		}
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel results differ from sequential: %v vs %v", par, seq)
	}
	if got := Cells(0, 4, fn); len(got) != 0 {
		t.Fatalf("Cells(0) returned %d results", len(got))
	}
}

// TestCellsPanicDeterministic: with several panicking cells, the harness must
// re-panic with the lowest index regardless of which worker hit it first.
func TestCellsPanicDeterministic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: expected panic", workers)
				}
				want := "bench: parallel cell 3: boom 3"
				if fmt.Sprint(r) != want {
					t.Fatalf("workers=%d: panic %q, want %q", workers, r, want)
				}
			}()
			Cells(16, workers, func(i int) int {
				if i >= 3 {
					panic(fmt.Sprintf("boom %d", i))
				}
				return i
			})
		}()
	}
}

// faultMatrixBytes flattens a full fault-matrix run — the rendered table plus
// every cell's metrics-registry JSON — into one byte stream, the same data
// voyager-bench writes to stdout and FAULTS_matrix.json.
func faultMatrixBytes(t *testing.T, workers int) []byte {
	t.Helper()
	table, runs := FaultMatrix(10, []uint64{1, 2}, workers)
	var buf bytes.Buffer
	buf.WriteString(table.String())
	for _, r := range runs {
		fmt.Fprintf(&buf, "%s/%d\n", r.Scenario, r.Seed)
		if err := r.Reg.WriteJSON(&buf, r.Now); err != nil {
			t.Fatalf("metrics JSON: %v", err)
		}
	}
	return buf.Bytes()
}

// TestFaultMatrixParallelByteIdentical is the determinism gate for the
// harness: -parallel output must be byte-for-byte the sequential output.
func TestFaultMatrixParallelByteIdentical(t *testing.T) {
	seq := faultMatrixBytes(t, 1)
	par := faultMatrixBytes(t, 4)
	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel fault matrix differs from sequential:\n--- workers=1\n%s\n--- workers=4\n%s", seq, par)
	}
	if !strings.Contains(string(seq), "node-death") {
		t.Fatalf("fault matrix missing node-death row:\n%s", seq)
	}
}

// TestHeadlineLatenciesParallelIdentical: the headline is identical at any
// worker count and byte-identical to the committed BENCH_baseline.json —
// the latencies are deterministic, so any drift is a change to explain and
// re-baseline, not noise.
func TestHeadlineLatenciesParallelIdentical(t *testing.T) {
	seq := HeadlineLatencies(1)
	par := HeadlineLatencies(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel headline differs: %v vs %v", par, seq)
	}
	var got bytes.Buffer
	if err := WriteHeadline(&got, seq); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("headline differs from BENCH_baseline.json (refresh with make bench-baseline if intended):\n%s", got.Bytes())
	}
}

// TestWorkloadSweepParallelIdentical drives the multi-seed determinism sweep
// (the voyager-run -seeds shape) through Cells and checks that every seed's
// trace hash and duration match the sequential run exactly.
func TestWorkloadSweepParallelIdentical(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	run := func(i int) workload.Result {
		return workload.Run(workload.Config{
			Nodes:       4,
			Pattern:     workload.Uniform,
			Messages:    16,
			PayloadSize: 32,
			Seed:        seeds[i],
		})
	}
	seq := Cells(len(seeds), 1, run)
	par := Cells(len(seeds), 4, run)
	for i := range seeds {
		if seq[i].TraceHash != par[i].TraceHash || seq[i].Duration != par[i].Duration {
			t.Fatalf("seed %d: parallel run diverged: %+v vs %+v", seeds[i], par[i], seq[i])
		}
	}
}
