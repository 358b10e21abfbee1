package arctic

import (
	"runtime"
	"testing"

	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// liveHeap returns the bytes in use after full collections.
func liveHeap() int64 {
	runtime.GC() // twice, so pooled objects cleared by the first go too
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestRegisterMetricsFootprint: registering a fabric's metrics costs memory
// per component, not per link. A 1024-node fat tree's 10,240 links register
// as one family, so their registry state is a few records, where one record
// and three closures per metric held 4.6 MB.
func TestRegisterMetricsFootprint(t *testing.T) {
	f := NewFatTree(sim.NewEngine(), 1024, DefaultConfig())
	before := liveHeap()
	reg := stats.NewRegistry()
	f.RegisterMetrics(reg.Child("net"))
	held := liveHeap() - before
	runtime.KeepAlive(reg)
	runtime.KeepAlive(f)
	t.Logf("%d links: %d bytes retained", f.NumLinks(), held)
	if held > 64<<10 {
		t.Errorf("registering %d links retains %d bytes, want at most 64 KiB", f.NumLinks(), held)
	}
}
