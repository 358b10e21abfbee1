package core

import (
	"encoding/binary"

	"startvoyager/internal/bus"
	"startvoyager/internal/firmware"
	"startvoyager/internal/niu/biu"
	"startvoyager/internal/node"
	"startvoyager/internal/sim"
)

// Reflective memory (the paper's Shrimp / Memory Channel emulation): writes
// to the reflective window land in local DRAM and are propagated to every
// subscriber node's copy at the same window offset. Three implementation
// modes exist — sP firmware, pure aBIU hardware, and deferred dirty-line
// flushing — selected per node with ReflectConfigure.

// ReflectConfigure programs this node's reflective-memory mode and export
// map (offsets are window-relative). Machine construction must have enabled
// a window (cluster.Config.ReflectSize).
func (a *API) ReflectConfigure(mode biu.ReflectMode, entries []biu.ReflectEntry) {
	a.n.ABIU.ConfigureReflect(mode, entries)
}

// ReflectStore writes data into the reflective window at off: a cached
// store followed by line flushes, so the writes reach the bus where the
// aBIU can observe them (the usual write-through discipline of reflective
// memory systems).
func (a *API) ReflectStore(p *sim.Proc, off uint32, data []byte) {
	defer a.busy(p, "ReflectStore")()
	addr := node.ReflectBase + off
	a.n.Cache.Store(p, addr, data)
	for la := addr &^ (bus.LineSize - 1); la < addr+uint32(len(data)); la += bus.LineSize {
		a.n.Cache.Flush(p, la)
	}
}

// ReflectStoreWord writes up to 8 bytes with a single uncached store (the
// lowest-latency reflective update).
func (a *API) ReflectStoreWord(p *sim.Proc, off uint32, data []byte) {
	defer a.busy(p, "ReflectStoreWord")()
	a.n.Cache.StoreUncached(p, node.ReflectBase+off, data)
}

// ReflectLoad reads the local copy of the reflective window (always local:
// reflective memory reads never cross the network).
func (a *API) ReflectLoad(p *sim.Proc, off uint32, buf []byte) {
	defer a.busy(p, "ReflectLoad")()
	a.n.Cache.Load(p, node.ReflectBase+off, buf)
}

// ReflectLoadUncached reads up to 8 bytes bypassing the cache — the polling
// read for values another node updates (cached copies are invalidated by
// arriving updates, but uncached polls see stores immediately).
func (a *API) ReflectLoadUncached(p *sim.Proc, off uint32, buf []byte) {
	defer a.busy(p, "ReflectLoadUncached")()
	a.n.Cache.LoadUncached(p, node.ReflectBase+off, buf)
}

// ReflectFlush (deferred mode) asks the local sP to propagate the dirty
// lines of [off, off+n); completion arrives on the notification queue with
// the given tag.
func (a *API) ReflectFlush(p *sim.Proc, off uint32, n int, tag uint32) {
	a.SendSvc(p, a.n.ID, firmware.SvcReflectFlush,
		firmware.EncodeFlushRequest(firmware.FlushRequest{Off: off, Len: n, Tag: tag}))
}

// ScomaEvict releases this node's copies of the S-COMA lines covering
// [off, off+n) — the frame-reclaim operation of an attraction-memory cache.
// Dirty lines are written back to their home; the requests are serialized
// through each line's home directory, so eviction cannot race a grant.
func (a *API) ScomaEvict(p *sim.Proc, off uint32, n int) {
	first := off / 32
	last := (off + uint32(n) + 31) / 32
	for line := first; line < last; line++ {
		var body [4]byte
		binary.BigEndian.PutUint32(body[:], line)
		home := firmware.ScomaHome(line, a.NumNodes())
		a.SendSvc(p, home, firmware.SvcScomaEvict, body[:])
	}
}
