package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
