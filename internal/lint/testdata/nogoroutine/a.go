// Package a exercises the nogoroutine analyzer: model code gets Procs and
// Conds, never real concurrency.
package a

func badGo() {
	go func() {}() // want "go statement in model code"
}

func badChannels() {
	ch := make(chan int, 1) // want "channel creation in model code"
	ch <- 1                 // want "channel send in model code"
	_ = <-ch                // want "channel receive in model code"
}

func badSelect(a, b chan int) {
	select { // want "select in model code"
	case <-a: // want "channel receive in model code"
	case <-b: // want "channel receive in model code"
	}
}

func badRange(ch chan int) {
	for v := range ch { // want "range over channel in model code"
		_ = v
	}
}

// The parallel-harness directive is scoped to startvoyager/internal/bench;
// here (any other package) it is itself a finding and grants nothing.
//
//voyager:parallel-harness not sanctioned in this package
func badDirective() { // want "parallel-harness directive outside startvoyager/internal/bench"
	go func() {}() // want "go statement in model code"
}

func good(xs []int) int {
	// Slices, maps, and plain control flow are untouched.
	total := 0
	for _, x := range xs {
		total += x
	}
	m := make(map[int]int)
	m[1] = total
	return m[1]
}
