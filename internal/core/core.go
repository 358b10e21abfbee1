// Package core is StarT-Voyager's layer 0: the user-level library through
// which application code on the aP uses the NIU. It provides the four
// default message-passing mechanisms (Basic, Express, TagOn, DMA), the
// NUMA and S-COMA shared-memory windows, and occupancy instrumentation.
//
// Every operation is implemented exactly as the paper describes the software
// doing it: Basic messages are composed with cached stores into mapped aSRAM
// followed by cache flushes and an uncached pointer-update store; Express
// messages are a single uncached store whose address encodes the
// destination; receives poll pointers with uncached loads that the aBIU
// serves; DMA is a request message to the local sP. The aP occupancy of each
// call is metered.
package core

import (
	"encoding/binary"
	"fmt"

	"startvoyager/internal/bus"
	"startvoyager/internal/cluster"
	"startvoyager/internal/firmware"
	"startvoyager/internal/niu/ctrl"
	"startvoyager/internal/node"
	"startvoyager/internal/sim"
)

// MaxBasicPayload is the largest Basic message payload.
const MaxBasicPayload = 88

// MaxExpressPayload is the Express message payload size.
const MaxExpressPayload = ctrl.ExpressPayload

// Machine is a running StarT-Voyager system.
type Machine struct {
	*cluster.Cluster
	apis []*API
}

// NewMachine builds a default machine with the given node count.
func NewMachine(nodes int) *Machine {
	return NewMachineConfig(cluster.DefaultConfig(nodes))
}

// NewMachineConfig builds a machine from an explicit configuration.
func NewMachineConfig(cfg cluster.Config) *Machine {
	m := &Machine{Cluster: cluster.New(cfg)}
	for _, n := range m.Nodes {
		m.apis = append(m.apis, newAPI(m, n))
	}
	return m
}

// API returns node i's user-level interface.
func (m *Machine) API(i int) *API { return m.apis[i] }

// Go spawns an application program on node i's aP.
func (m *Machine) Go(i int, name string, body func(p *sim.Proc, a *API)) {
	a := m.apis[i]
	m.Eng.SpawnOn(i, "aP", "ap", name, func(p *sim.Proc) {
		body(p, a)
	})
}

// API is the per-node user library handle.
type API struct {
	m *Machine
	n *node.Node

	txProd       [ctrl.NumQueues]uint32 // software's producer counters
	rxCons       [ctrl.NumQueues]uint32 // software's consumer counters
	overflowCons uint32                 // DRAM overflow ring consumer

	// Occupancy brackets (see busy): how many are open, the span over
	// them, and each Proc that holds one.
	busyDepth int
	busySpan  sim.Span
	busyProcs []*sim.Proc

	// Channel allocation state (see channel.go).
	nextTxQ, nextRxQ int
	nextVirt         int
	sramArena        uint32

	// Reliable-delivery state (see reliable.go).
	relTag   uint32      // last tag handed to SendReliable
	relStash []relStatus // statuses drained on behalf of other senders
	relLock  *sim.Resource

	// Free lists of pooled per-operation records that keep the message path
	// allocation-free. Each in-flight call takes its own record, so API
	// calls blocked in the simulator never share scratch state even when
	// several procs time-share this aP (multitasking workloads).
	busyFree []*busyTok
	spinFree []*spin
}

func newAPI(m *Machine, n *node.Node) *API {
	return &API{m: m, n: n,
		relLock: sim.NewResource(m.Eng, fmt.Sprintf("rellock%d", n.ID))}
}

// Node returns the underlying node (for instrumentation).
func (a *API) Node() *node.Node { return a.n }

// NodeID returns this node's number.
func (a *API) NodeID() int { return a.n.ID }

// NumNodes returns the machine size.
func (a *API) NumNodes() int { return len(a.m.Nodes) }

// busy brackets the aP occupancy of an API call made by p. The aP meter
// and one span on the node's "aP" track, named after the operation that
// opened it, cover the union of the brackets open on this aP, whichever
// Procs time-sharing it hold them. Each Proc's outermost bracket pushes op
// as that Proc's profiler frame, so nested calls meter and attribute once.
// The returned func is a pooled token's prebound method value — deferring it
// closes the bracket and recycles the token without allocating.
//
//voyager:noalloc
func (a *API) busy(p *sim.Proc, op string) func() {
	if a.busyDepth == 0 {
		a.n.APMeter.Start()
		if eng := a.m.Eng; eng.Observed() {
			a.busySpan = eng.BeginSpan(a.n.ID, "aP", op)
		}
	}
	a.busyDepth++
	t := a.busyGet()
	t.p = p
	if t.outer = !a.holdsBusy(p); t.outer {
		a.busyProcs = append(a.busyProcs, p) //voyager:alloc-ok(amortized: backing array is retained)
		a.m.Eng.ProfPush(op)
	}
	return t.endFn
}

// busyTok is one pooled occupancy bracket, opened by p; outer marks p's
// outermost one.
type busyTok struct {
	a     *API
	p     *sim.Proc
	outer bool
	endFn func()
}

//voyager:noalloc
func (t *busyTok) end() {
	a := t.a
	if t.outer {
		for i, p := range a.busyProcs {
			if p == t.p {
				last := len(a.busyProcs) - 1
				a.busyProcs[i], a.busyProcs[last] = a.busyProcs[last], nil
				a.busyProcs = a.busyProcs[:last]
				break
			}
		}
		a.m.Eng.ProfPop()
	}
	a.busyDepth--
	if a.busyDepth == 0 {
		a.busySpan.End()
		a.busySpan = sim.Span{}
		a.n.APMeter.Stop()
	}
	t.p = nil
	a.busyFree = append(a.busyFree, t) //voyager:alloc-ok(amortized: pool backing array is retained)
}

// holdsBusy reports whether p has a bracket open on this aP.
//
//voyager:noalloc
func (a *API) holdsBusy(p *sim.Proc) bool {
	for _, q := range a.busyProcs {
		if q == p {
			return true
		}
	}
	return false
}

//voyager:noalloc
func (a *API) busyGet() *busyTok {
	if n := len(a.busyFree); n > 0 {
		t := a.busyFree[n-1]
		a.busyFree = a.busyFree[:n-1]
		return t
	}
	t := &busyTok{a: a} //voyager:alloc-ok(pool warm-up; recycled thereafter)
	t.endFn = t.end     //voyager:alloc-ok(one-time method binding for the pooled record)
	return t
}

// Compute models d of application computation on the aP.
//
//voyager:noalloc
func (a *API) Compute(p *sim.Proc, d sim.Time) {
	defer a.busy(p, "Compute")()
	p.Delay(d)
}

// --- Basic messages ---

// slotQ is one message queue in the Basic slot format as the library sees
// it: the CTRL queue number, the aSRAM offset of its slot ring and the
// ring's depth. The default queues below and every Channel's pair share the
// one compose path (sendSlot) and the one consume path (readSlot).
type slotQ struct {
	q       int
	buf     uint32
	entries int
}

var (
	txBasicQ   = slotQ{node.TxBasic, node.SramTxBasicBuf, node.BasicEntries}
	rxBasicQ   = slotQ{node.RxBasic, node.SramRxBasicBuf, node.BasicEntries}
	rxNotifyQ  = slotQ{node.RxNotify, node.SramRxNotifyBuf, node.BasicEntries}
	rxRelQ     = slotQ{node.RxRel, node.SramRxRelBuf, node.BasicEntries}
	rxRelStatQ = slotQ{node.RxRelStatus, node.SramRxRelStatBuf, node.BasicEntries}
)

// slot returns the bus address of the ring slot that counter value ptr
// names.
//
//voyager:noalloc
func (sq slotQ) slot(ptr uint32) uint32 {
	return node.SramBase + ctrl.SlotOffset(sq.buf, node.BasicSlotBytes, sq.entries, ptr)
}

// SendBasic sends payload (<= 88 bytes) to the Basic queue of node dest,
// blocking while the transmit queue is full.
//
//voyager:noalloc
func (a *API) SendBasic(p *sim.Proc, dest int, payload []byte) {
	a.sendSlot(p, "SendBasic", txBasicQ, a.n.TransBasicIdx(dest), 0, payload, 0, 0, false)
}

// SendSvc sends a firmware service message (service id + body) to node
// dest's sP — the aP→sP request path (e.g. DMA requests).
func (a *API) SendSvc(p *sim.Proc, dest int, svc byte, body []byte) {
	a.sendSlot(p, "SendSvc", txBasicQ, a.n.TransSvcIdx(dest), 0, append([]byte{svc}, body...), 0, 0, false)
}

// SendTagOn sends a Basic message whose payload is extended with tagLen
// bytes of aSRAM data at sramOff (tagLen must be a multiple of 16, at most
// 80 — up to 2.5 cache lines). inline+tag must fit a Basic payload.
//
//voyager:noalloc
func (a *API) SendTagOn(p *sim.Proc, dest int, inline []byte, sramOff uint32, tagLen int) {
	if tagLen%16 != 0 || tagLen > 80 {
		panic(fmt.Sprintf("core: bad TagOn length %d", tagLen)) //voyager:alloc-ok(panic path)
	}
	a.sendSlot(p, "SendTagOn", txBasicQ, a.n.TransBasicIdx(dest), ctrl.SlotFlagTagOn|ctrl.SlotFlagTagASram,
		inline, sramOff, tagLen, false)
}

// sendSlot composes and launches one message on transmit queue sq; op names
// the public API call for the occupancy span. With shut set, a protection
// shutdown of the queue ends the wait for a free slot, and sendSlot
// reports it instead of sending.
//
//voyager:noalloc composes on the stack: Cache.Store copies the slot out
func (a *API) sendSlot(p *sim.Proc, op string, sq slotQ, destIdx int, flags byte, payload []byte,
	tagOff uint32, tagLen int, shut bool) (shutdown bool) {
	if len(payload) > MaxBasicPayload {
		panic(fmt.Sprintf("core: payload %d exceeds Basic limit", len(payload))) //voyager:alloc-ok(panic path)
	}
	defer a.busy(p, op)()
	q := sq.q
	if a.waitTx(p, q, uint32(sq.entries), shut) {
		return true
	}

	var buf [ctrl.SlotHeaderBytes + MaxBasicPayload]byte
	slot := buf[:ctrl.SlotHeaderBytes+len(payload)]
	binary.BigEndian.PutUint16(slot[0:], uint16(destIdx))
	slot[2] = flags
	slot[3] = byte(len(payload))
	slot[4], slot[5], slot[6] = byte(tagOff>>16), byte(tagOff>>8), byte(tagOff)
	slot[7] = byte(tagLen / 16)
	copy(slot[8:], payload)

	base := sq.slot(a.txProd[q])
	// Cached stores compose the message, flushes push it into the aSRAM.
	a.n.Cache.Store(p, base, slot)
	for off := uint32(0); off < uint32(len(slot)); off += bus.LineSize {
		a.n.Cache.Flush(p, base+off)
	}
	// The message enters the system when the producer pointer publishes it:
	// allocate its causal trace id and stage it beside the slot.
	tag := sim.MsgTag{ID: a.m.Eng.NewMsgID()}
	a.n.Ctrl.StageTxTag(q, a.txProd[q], tag)
	a.m.Eng.MsgInstant(a.n.ID, "aP", "msg-send", tag, sim.Int("txq", q))
	a.txProd[q]++
	a.ptrStore(p, q, false, a.txProd[q])
	return false
}

// waitTx polls transmit queue q's consumer pointer until fewer than lim
// messages are outstanding. With shut set, a protection shutdown of q ends
// the wait instead, and waitTx reports true.
//
//voyager:noalloc
func (a *API) waitTx(p *sim.Proc, q int, lim uint32, shut bool) (shutdown bool) {
	s := a.spinGet(spinTx, ptrAddr(q, false), &a.txProd[q], "", noDeadline)
	s.lim = lim
	if shut {
		s.shutQ = q
	}
	shutdown = s.wait(p) == spinShutdown
	s.release()
	return shutdown
}

// TryRecvBasic polls the Basic receive queue once; ok is false if empty.
//
//voyager:noalloc
func (a *API) TryRecvBasic(p *sim.Proc) (src int, payload []byte, ok bool) {
	return a.tryRecvSlot(p, "TryRecvBasic", rxBasicQ)
}

// RecvBasic blocks until a Basic message arrives.
//
//voyager:noalloc
func (a *API) RecvBasic(p *sim.Proc) (src int, payload []byte) {
	src, payload, _ = a.recvSlotT(p, "RecvBasic", "TryRecvBasic", rxBasicQ, noDeadline)
	return src, payload
}

// RecvBasicTimeout is RecvBasic with a bound: after timeout of simulated
// time with no message it returns a *TimeoutError.
//
//voyager:noalloc
func (a *API) RecvBasicTimeout(p *sim.Proc, timeout sim.Time) (src int, payload []byte, err error) {
	return a.recvSlotT(p, "RecvBasic", "TryRecvBasic", rxBasicQ, timeout)
}

// recvSlotT blocks (with an optional deadline) on receive queue sq; span
// names the wait for its timeout error, op each try's occupancy bracket.
//
//voyager:noalloc
func (a *API) recvSlotT(p *sim.Proc, span, op string, sq slotQ,
	timeout sim.Time) (src int, payload []byte, err error) {
	s := a.spinGet(spinRx, ptrAddr(sq.q, true), &a.rxCons[sq.q], op, timeout)
	hit := s.wait(p) == spinHit
	if hit {
		src, payload = a.readSlot(p, sq)
	}
	s.release()
	if !hit {
		return 0, nil, &TimeoutError{Op: span, Timeout: timeout} //voyager:alloc-ok(timeout error on the cold exit)
	}
	return src, payload, nil
}

// RecvNotify blocks until a completion notification (DMA / block transfer)
// arrives on the notification queue.
//
//voyager:noalloc
func (a *API) RecvNotify(p *sim.Proc) (src int, payload []byte) {
	src, payload, _ = a.recvSlotT(p, "RecvNotify", "RecvNotify", rxNotifyQ, noDeadline)
	return src, payload
}

// RecvNotifyTimeout is RecvNotify with a bound: after timeout of simulated
// time with no notification it returns a *TimeoutError (e.g. a DMA whose
// completion message died with a partitioned peer).
//
//voyager:noalloc
func (a *API) RecvNotifyTimeout(p *sim.Proc, timeout sim.Time) (src int, payload []byte, err error) {
	return a.recvSlotT(p, "RecvNotify", "RecvNotify", rxNotifyQ, timeout)
}

// TryRecvNotify polls the notification queue once.
//
//voyager:noalloc
func (a *API) TryRecvNotify(p *sim.Proc) (src int, payload []byte, ok bool) {
	return a.tryRecvSlot(p, "TryRecvNotify", rxNotifyQ)
}

// tryRecvSlot polls receive queue sq once; op names the occupancy bracket.
//
//voyager:noalloc
func (a *API) tryRecvSlot(p *sim.Proc, op string, sq slotQ) (int, []byte, bool) {
	defer a.busy(p, op)()
	producer, _ := a.ptrLoad(p, sq.q, true)
	if producer == a.rxCons[sq.q] {
		return 0, nil, false
	}
	src, payload := a.readSlot(p, sq)
	return src, payload, true
}

// readSlot consumes the message at the head of receive queue sq, which the
// producer pointer has shown to be non-empty. The returned payload is its
// only allocation: it is handed to the caller, which owns it outright.
//
//voyager:noalloc
func (a *API) readSlot(p *sim.Proc, sq slotQ) (int, []byte) {
	q := sq.q
	base := sq.slot(a.rxCons[q])
	// Invalidate any stale cached copy of the slot, then read it.
	var hdr [8]byte
	a.n.Cache.Flush(p, base)
	a.n.Cache.Load(p, base, hdr[:])
	n := int(binary.BigEndian.Uint16(hdr[4:]))
	payload := make([]byte, n) //voyager:alloc-ok(caller-owned result; ownership leaves the pool here)
	if n > 0 {
		for off := uint32(bus.LineSize); off < uint32(8+n); off += bus.LineSize {
			a.n.Cache.Flush(p, base+off)
		}
		a.n.Cache.Load(p, base+8, payload)
	}
	src := int(binary.BigEndian.Uint16(hdr[0:]))
	a.m.Eng.MsgInstant(a.n.ID, "aP", "msg-consume", a.n.Ctrl.RxTag(q, a.rxCons[q]), sim.Int("rxq", q))
	a.rxCons[q]++
	a.ptrStore(p, q, true, a.rxCons[q])
	return src, payload
}

// --- Express messages ---

// SendExpress sends up to 5 bytes to node dest with a single uncached store.
//
//voyager:noalloc
func (a *API) SendExpress(p *sim.Proc, dest int, payload []byte) {
	if len(payload) > MaxExpressPayload {
		panic(fmt.Sprintf("core: payload %d exceeds Express limit", len(payload))) //voyager:alloc-ok(panic path)
	}
	defer a.busy(p, "SendExpress")()
	destIdx := uint32(a.n.TransExpressIdx(dest))
	addr := node.ExTxBase + (uint32(node.TxExpress)<<12|destIdx)<<3
	var word [8]byte
	copy(word[:], payload)
	a.n.Cache.StoreUncached(p, addr, word[:])
}

// TryRecvExpress polls the Express receive queue with a single uncached
// load; ok is false when empty.
//
//voyager:noalloc
func (a *API) TryRecvExpress(p *sim.Proc) (src int, payload [MaxExpressPayload]byte, ok bool) {
	defer a.busy(p, "TryRecvExpress")()
	var word [8]byte
	a.n.Cache.LoadUncached(p, exRxAddr, word[:])
	if word[0]&0x80 == 0 {
		return 0, payload, false
	}
	src, payload = expressMsg(&word)
	return src, payload, true
}

// exRxAddr is the Express receive queue's word: loading it pops one message.
const exRxAddr = node.ExRxBase + uint32(node.RxExpress)*8

// expressMsg decodes a valid Express receive word.
//
//voyager:noalloc
func expressMsg(word *[8]byte) (src int, payload [MaxExpressPayload]byte) {
	copy(payload[:], word[3:8])
	return int(binary.BigEndian.Uint16(word[1:])), payload
}

// RecvExpress blocks until an Express message arrives.
//
//voyager:noalloc
func (a *API) RecvExpress(p *sim.Proc) (src int, payload [MaxExpressPayload]byte) {
	src, payload, _ = a.RecvExpressTimeout(p, noDeadline)
	return src, payload
}

// RecvExpressTimeout is RecvExpress with a bound: after timeout of simulated
// time with no message it returns a *TimeoutError.
//
//voyager:noalloc
func (a *API) RecvExpressTimeout(p *sim.Proc, timeout sim.Time) (src int, payload [MaxExpressPayload]byte, err error) {
	s := a.spinGet(spinExpress, exRxAddr, nil, "TryRecvExpress", timeout)
	hit := s.wait(p) == spinHit
	if hit {
		src, payload = expressMsg(&s.word)
	}
	s.release()
	if !hit {
		return 0, payload, &TimeoutError{Op: "RecvExpress", Timeout: timeout} //voyager:alloc-ok(timeout error on the cold exit)
	}
	return src, payload, nil
}

// --- DMA ---

// Dma submits a transfer request to the local sP and returns immediately.
// Completion is signaled to the destination node's notification queue.
func (a *API) Dma(p *sim.Proc, req firmware.DmaRequest) {
	if req.NotifyQ == 0 {
		req.NotifyQ = node.LqNotify
	}
	a.SendSvc(p, a.n.ID, firmware.SvcDmaRequest, firmware.EncodeDmaRequest(req))
}

// DmaPush copies [srcAddr, srcAddr+n) of local DRAM into dest's DRAM at
// dstAddr, notifying dest's notification queue with tag.
func (a *API) DmaPush(p *sim.Proc, dest int, srcAddr, dstAddr uint32, n int, tag uint32) {
	a.Dma(p, firmware.DmaRequest{PeerNode: dest, SrcAddr: srcAddr, DstAddr: dstAddr,
		Len: n, Tag: tag})
}

// --- shared memory ---

// ScomaAddr converts an offset in the global S-COMA space to its window
// address.
//
//voyager:noalloc
func (a *API) ScomaAddr(off uint32) uint32 { return node.ScomaBase + off }

// ScomaLoad reads from the S-COMA window through the cache (stalling, via
// bus retry, until the protocol delivers the lines).
//
//voyager:noalloc
func (a *API) ScomaLoad(p *sim.Proc, off uint32, buf []byte) {
	defer a.busy(p, "ScomaLoad")()
	a.n.Cache.Load(p, a.ScomaAddr(off), buf)
}

// ScomaStore writes to the S-COMA window through the cache.
//
//voyager:noalloc
func (a *API) ScomaStore(p *sim.Proc, off uint32, data []byte) {
	defer a.busy(p, "ScomaStore")()
	a.n.Cache.Store(p, a.ScomaAddr(off), data)
}

// NumaLoad reads up to 8 bytes from the NUMA window (uncached remote
// access).
//
//voyager:noalloc
func (a *API) NumaLoad(p *sim.Proc, off uint32, buf []byte) {
	defer a.busy(p, "NumaLoad")()
	a.n.Cache.LoadUncached(p, node.NumaBase+off, buf)
}

// NumaStore writes up to 8 bytes into the NUMA window.
//
//voyager:noalloc
func (a *API) NumaStore(p *sim.Proc, off uint32, data []byte) {
	defer a.busy(p, "NumaStore")()
	a.n.Cache.StoreUncached(p, node.NumaBase+off, data)
}

// --- local memory ---

// MemLoad reads local DRAM through the cache.
//
//voyager:noalloc
func (a *API) MemLoad(p *sim.Proc, addr uint32, buf []byte) {
	defer a.busy(p, "MemLoad")()
	a.n.Cache.Load(p, addr, buf)
}

// MemStore writes local DRAM through the cache.
//
//voyager:noalloc
func (a *API) MemStore(p *sim.Proc, addr uint32, data []byte) {
	defer a.busy(p, "MemStore")()
	a.n.Cache.Store(p, addr, data)
}

// MemFlush writes back and invalidates the cache lines covering
// [addr, addr+n) so the data is visible to the NIU's bus reads.
//
//voyager:noalloc
func (a *API) MemFlush(p *sim.Proc, addr uint32, n int) {
	defer a.busy(p, "MemFlush")()
	first := addr &^ (bus.LineSize - 1)
	for la := first; la < addr+uint32(n); la += bus.LineSize {
		a.n.Cache.Flush(p, la)
	}
}

// StageASram copies data into the aSRAM at off using cached stores plus
// flushes (the TagOn staging path).
//
//voyager:noalloc
func (a *API) StageASram(p *sim.Proc, off uint32, data []byte) {
	defer a.busy(p, "StageASram")()
	addr := node.SramBase + off
	a.n.Cache.Store(p, addr, data)
	for la := addr &^ (bus.LineSize - 1); la < addr+uint32(len(data)); la += bus.LineSize {
		a.n.Cache.Flush(p, la)
	}
}

// Poke writes DRAM directly, without simulated time (test/workload setup).
func (a *API) Poke(addr uint32, data []byte) { a.n.Dram.Poke(addr, data) }

// Peek reads DRAM directly, without simulated time (verification).
func (a *API) Peek(addr uint32, buf []byte) { a.n.Dram.Peek(addr, buf) }

// --- low-level pointer access ---

// ptrLoad reads the (producer, consumer) pair of a queue with one uncached
// load through the aBIU.
//
//voyager:noalloc
func (a *API) ptrLoad(p *sim.Proc, q int, rx bool) (producer, consumer uint32) {
	var word [8]byte
	a.n.Cache.LoadUncached(p, ptrAddr(q, rx), word[:])
	v := binary.BigEndian.Uint64(word[:])
	return uint32(v >> 32), uint32(v)
}

// ptrStore publishes a pointer value with one uncached store.
//
//voyager:noalloc
func (a *API) ptrStore(p *sim.Proc, q int, rx bool, val uint32) {
	var word [8]byte
	binary.BigEndian.PutUint64(word[:], uint64(val))
	a.n.Cache.StoreUncached(p, ptrAddr(q, rx), word[:])
}

// ptrAddr is the address of a queue's pointer word: its (producer,
// consumer) pair, big-endian.
//
//voyager:noalloc
func ptrAddr(q int, rx bool) uint32 {
	off := uint32(q) * 16
	if rx {
		off += 8
	}
	return node.PtrBase + off
}
