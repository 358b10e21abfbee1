package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Deterministic N-way run harness. The headline probe and voyager-run's
// -seeds and -nodes sweeps all execute fully independent cells — each cell
// builds its own Engine, machine, registries, and trace buffers, and no
// state crosses cells — so they may run on real worker goroutines without
// perturbing a single simulated nanosecond. Determinism is preserved
// structurally: results land in a slot indexed by cell, and the caller
// consumes them in fixed cell order, so the merged output is byte-identical
// whatever the host scheduler does (test-enforced in parallel_test.go
// against the headline latencies and a workload seed sweep; `make
// faults-check` compares voyager-run's seed table at 1 and 4 workers).
//
// This file is the one sanctioned use of real concurrency in model
// packages; the nogoroutine analyzer admits it through the
// voyager:parallel-harness directive below and flags everything else.

// Cells evaluates fn(i) for every cell i in [0, n) across at most workers
// goroutines and returns the results in cell order. workers <= 1 runs the
// cells sequentially on the calling goroutine — the output is identical
// either way, provided fn(i) is a pure function of i (each cell must own
// its Engine and everything attached to it, and must not print).
//
// A panicking cell panics Cells after all cells finish; when several cells
// panic, the lowest-indexed one wins, so failure output is deterministic
// too.
//
//voyager:parallel-harness cells share no state; results merge in fixed cell order
func Cells[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			func() {
				defer rewrapPanic(i)
				out[i] = fn(i)
			}()
		}
		return out
	}
	if workers > n {
		workers = n
	}
	panics := make([]interface{}, n)
	runCell := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panics[i] = r
			}
		}()
		out[i] = fn(i)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runCell(i)
			}
		}()
	}
	wg.Wait()
	for i, r := range panics {
		if r != nil {
			panic(fmt.Sprintf("bench: parallel cell %d: %v", i, r))
		}
	}
	return out
}

// rewrapPanic tags a sequential cell's panic exactly like the parallel path
// does, so failure output matches at any worker count.
func rewrapPanic(i int) {
	if r := recover(); r != nil {
		panic(fmt.Sprintf("bench: parallel cell %d: %v", i, r))
	}
}
