//linttest:importpath startvoyager/internal/sim

// Package sim exercises the closed engine exemption: Procs run as stdlib
// coroutines, so the engine package itself gets no real concurrency either
// (the import path is pinned above).
package sim

func spawnGoroutine(body func()) {
	go body() // want "go statement in model code"
}
