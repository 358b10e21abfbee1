// Package biu models the two bus interface units — the large FPGAs of the
// StarT-Voyager NIU that form the programmable layer (layer 1) between the
// processors and the CTRL core.
//
// The aBIU watches every aP bus operation and, by address region and
// configurable tables, decides to ignore it, serve it from aSRAM, transform
// it into CTRL operations (pointer updates, express message composition),
// retry it (S-COMA state check misses), or forward it to the service
// processor (NUMA window). In the model, "reprogramming the FPGA" is
// replacing these tables and ranges at machine construction time — which is
// exactly the experimental knob the paper turns between block-transfer
// approaches.
//
// The sBIU is the firmware's window onto the same machinery: it owns the
// aBIU→sBIU queue through which captured bus operations reach the sP.
package biu

import (
	"encoding/binary"
	"fmt"

	"startvoyager/internal/bus"
	"startvoyager/internal/niu/ctrl"
	"startvoyager/internal/niu/sram"
	"startvoyager/internal/sim"
)

// Map is the aBIU's address decode map. All ranges must be disjoint.
type Map struct {
	// Sram maps the aSRAM directly (cached or uncached processor access).
	Sram bus.Range
	// Ptr is the uncached pointer region: offset q*16 writes the transmit
	// producer for queue q, offset q*16+8 writes the receive consumer.
	// Reads return the packed (producer<<32 | consumer) pair.
	Ptr bus.Range
	// ExpressTx: an uncached store at offset (q<<12|dest)<<3 composes and
	// launches an express message from queue q to virtual destination dest
	// (the shift keeps the store beat-aligned, as the hardware requires).
	ExpressTx bus.Range
	// ExpressRx: an uncached load at offset q*8 receives from queue q.
	ExpressRx bus.Range
	// Numa is the remote-memory window forwarded to the sP.
	Numa bus.Range
	// Scoma is the S-COMA region (backed by local DRAM; the aBIU only
	// checks clsSRAM state and never claims these operations).
	Scoma bus.Range
	// Reflect is the reflective-memory window (backed by local DRAM; writes
	// may be propagated to subscriber nodes — see ConfigureReflect).
	Reflect bus.Range
}

// ScomaAction is one entry of the (bus operation, clsSRAM state)-indexed
// action table (two bits, as in the paper).
type ScomaAction struct {
	Retry  bool // retry the operation until the state changes
	PassSP bool // forward a captured copy to the sP (once per line episode)
}

// CapturedOp is a bus operation forwarded from the aBIU to the sP through
// the BIU-to-BIU queue.
type CapturedOp struct {
	Kind  bus.Kind
	Addr  uint32
	Size  int
	Data  []byte // write data (copied), nil for reads
	Scoma bool   // captured by the S-COMA state check
	// Reflect marks a write captured in the reflective-memory window;
	// otherwise a false Scoma means the NUMA window.
	Reflect bool
}

// Config holds aBIU timing.
type Config struct {
	SramLatency sim.Time // aSRAM service latency on the aP bus
	RegLatency  sim.Time // pointer/express service latency
}

// DefaultConfig returns FPGA-speed defaults.
func DefaultConfig() Config {
	return Config{SramLatency: 45 * sim.Nanosecond, RegLatency: 15 * sim.Nanosecond}
}

// kindIndex compacts bus kinds for table indexing.
func kindIndex(k bus.Kind) int { return int(k) }

const numKinds = 6

// ABIU is the aP-side bus interface unit.
type ABIU struct {
	eng  *sim.Engine
	b    *bus.Bus
	c    *ctrl.Ctrl
	aS   *sram.SRAM
	cls  *sram.Cls
	m    Map
	cfg  Config
	node int

	// NUMA machinery.
	pendingFill map[uint32][]byte // line address -> data ready to serve
	pendingAck  map[uint32]bool   // write addresses acknowledged by the home
	requested   map[uint32]bool   // ops already forwarded to the sP
	// S-COMA notification dedup (line index -> already passed to sP).
	notified map[int]bool

	// toSP is the aBIU→sBIU queue.
	toSP *sim.Queue[CapturedOp]

	reflect reflectState

	// Snoop serve staging: the decode phase records what the prebound serve
	// function needs and the bus serializes transactions, so the claimed
	// operation is always served before the next snoop can restage. This
	// keeps the SRAM/pointer/express fast paths closure-free.
	srvOff      uint32 // aSRAM offset (snoopSram)
	srvQ        int    // queue index (snoopPtr, snoopExpress*)
	srvIsRx     bool   // pointer pair selector (snoopPtr)
	srvDest     uint16 // express destination (snoopExpressTx)
	sramServeFn func(*bus.Transaction)
	ptrServeFn  func(*bus.Transaction)
	exTxServeFn func(*bus.Transaction)
	exRxServeFn func(*bus.Transaction)

	stats Stats
}

// Stats counts aBIU activity.
type Stats struct {
	SramReads, SramWrites uint64
	PtrUpdates            uint64
	ExpressTx, ExpressRx  uint64
	NumaCaptured          uint64
	NumaFills             uint64
	NumaAcks              uint64
	ScomaRetries          uint64
	ScomaCaptured         uint64
	CtrlBusOps            uint64
	ReflectCaptured       uint64 // writes forwarded to the sP
	ReflectHw             uint64 // updates composed in aBIU hardware
	ReflectDirty          uint64 // dirty bits set (deferred mode)
}

// NewABIU builds the aBIU for one node. Attach it to the aP bus yourself.
func NewABIU(eng *sim.Engine, node int, b *bus.Bus, c *ctrl.Ctrl, aS *sram.SRAM,
	cls *sram.Cls, m Map, cfg Config) *ABIU {
	a := &ABIU{
		eng: eng, b: b, c: c, aS: aS, cls: cls, m: m, cfg: cfg, node: node,
		pendingFill: make(map[uint32][]byte),
		pendingAck:  make(map[uint32]bool),
		requested:   make(map[uint32]bool),
		notified:    make(map[int]bool),
		toSP:        sim.NewQueue[CapturedOp](eng),
	}
	a.toSP.SetName("biu/captured")
	a.sramServeFn = a.sramServe
	a.ptrServeFn = a.ptrServe
	a.exTxServeFn = a.exTxServe
	a.exRxServeFn = a.exRxServe
	return a
}

// scomaActions is the action table of the default MSI-style S-COMA protocol
// over the sram.CL* state encoding. Every node shares it: experiments change
// the protocol in firmware, not here.
var scomaActions = func() (t [numKinds][16]ScomaAction) {
	inv, pend, ro := int(sram.CLInvalid), int(sram.CLPending), int(sram.CLReadOnly)
	// Reads: stall on Invalid (notify) and Pending (silent).
	for _, k := range []bus.Kind{bus.ReadLine, bus.ReadWord} {
		t[kindIndex(k)][inv] = ScomaAction{Retry: true, PassSP: true}
		t[kindIndex(k)][pend] = ScomaAction{Retry: true}
	}
	// Writes/upgrades: stall on Invalid, Pending and ReadOnly.
	for _, k := range []bus.Kind{bus.ReadLineX, bus.Kill, bus.WriteWord} {
		t[kindIndex(k)][inv] = ScomaAction{Retry: true, PassSP: true}
		t[kindIndex(k)][pend] = ScomaAction{Retry: true}
		t[kindIndex(k)][ro] = ScomaAction{Retry: true, PassSP: true}
	}
	// WriteLine (writeback of a dirty S-COMA line) always proceeds.
	return t
}()

// Stats returns a snapshot of counters.
func (a *ABIU) Stats() Stats { return a.stats }

// DeviceName implements bus.Device.
func (a *ABIU) DeviceName() string { return fmt.Sprintf("abiu%d", a.node) }

// IssueBusOp implements ctrl.BusPort: CTRL masters the aP bus through the
// aBIU.
func (a *ABIU) IssueBusOp(tx *bus.Transaction, done func()) {
	tx.Master = a
	a.stats.CtrlBusOps++
	a.b.Issue(tx, done)
}

// SupplyFill hands the aBIU data with which to satisfy a retried NUMA read
// of the line at addr (sP firmware calls this when the remote data arrives).
func (a *ABIU) SupplyFill(addr uint32, data []byte) {
	a.pendingFill[addr] = append([]byte(nil), data...)
	delete(a.requested, addr)
}

// SupplyWriteAck releases a retried NUMA store at addr (sP firmware calls
// this when the home acknowledges the write) — the "sP explicitly stops the
// retries" mechanism of the paper.
func (a *ABIU) SupplyWriteAck(addr uint32) {
	a.pendingAck[addr] = true
	delete(a.requested, addr)
}

// ClearScomaNotify re-arms the pass-to-sP notification for an S-COMA line
// (firmware calls it when an episode completes).
func (a *ABIU) ClearScomaNotify(lineIdx int) { delete(a.notified, lineIdx) }

// SnoopBus implements bus.Device: the aBIU's decode of every aP bus
// operation it did not itself master.
func (a *ABIU) SnoopBus(tx *bus.Transaction) bus.Snoop {
	switch {
	case a.m.Sram.Contains(tx.Addr):
		return a.snoopSram(tx)
	case a.m.Ptr.Contains(tx.Addr):
		return a.snoopPtr(tx)
	case a.m.ExpressTx.Contains(tx.Addr):
		return a.snoopExpressTx(tx)
	case a.m.ExpressRx.Contains(tx.Addr):
		return a.snoopExpressRx(tx)
	case a.m.Numa.Contains(tx.Addr):
		return a.snoopNuma(tx)
	case a.m.Scoma.Contains(tx.Addr):
		return a.snoopScoma(tx)
	case a.m.Reflect.Contains(tx.Addr):
		return a.snoopReflect(tx)
	default:
		return bus.Snoop{}
	}
}

// snoopSram serves the direct aSRAM mapping.
//
//voyager:noalloc
func (a *ABIU) snoopSram(tx *bus.Transaction) bus.Snoop {
	a.srvOff = a.m.Sram.Offset(tx.Addr)
	return bus.Snoop{Action: bus.Claim, Latency: a.cfg.SramLatency, Serve: a.sramServeFn}
}

//voyager:noalloc
func (a *ABIU) sramServe(tx *bus.Transaction) {
	if tx.Kind.IsRead() {
		a.stats.SramReads++
		a.aS.Read(a.srvOff, tx.Data)
	} else {
		a.stats.SramWrites++
		a.aS.Write(a.srvOff, tx.Data)
	}
}

// snoopPtr handles the pointer update/poll region.
//
//voyager:noalloc
func (a *ABIU) snoopPtr(tx *bus.Transaction) bus.Snoop {
	off := a.m.Ptr.Offset(tx.Addr)
	a.srvQ = int(off / 16)
	a.srvIsRx = off%16 >= 8
	return bus.Snoop{Action: bus.Claim, Latency: a.cfg.RegLatency, Serve: a.ptrServeFn}
}

//voyager:noalloc
func (a *ABIU) ptrServe(tx *bus.Transaction) {
	q, isRx := a.srvQ, a.srvIsRx
	switch tx.Kind {
	case bus.WriteWord:
		a.stats.PtrUpdates++
		var w [8]byte
		copy(w[:], tx.Data)
		val := uint32(binary.BigEndian.Uint64(w[:]))
		if isRx {
			a.c.RxConsumerUpdate(q, val)
		} else {
			a.c.TxProducerUpdate(q, val)
		}
	case bus.ReadWord:
		var v uint64
		if isRx {
			v = uint64(a.c.RxProducer(q))<<32 | uint64(a.c.RxConsumer(q))
		} else {
			v = uint64(a.c.TxProducer(q))<<32 | uint64(a.c.TxConsumer(q))
		}
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		copy(tx.Data, b[:])
	default:
		panic(fmt.Sprintf("biu: node %d: %v in pointer region", a.node, tx.Kind)) //voyager:alloc-ok(panic path)
	}
}

// snoopExpressTx composes an express message from a single uncached store.
func (a *ABIU) snoopExpressTx(tx *bus.Transaction) bus.Snoop {
	off := a.m.ExpressTx.Offset(tx.Addr)
	a.srvQ = int(off >> 15 & 0xF)
	a.srvDest = uint16(off >> 3 & 0xFFF)
	return bus.Snoop{Action: bus.Claim, Latency: a.cfg.RegLatency, Serve: a.exTxServeFn}
}

func (a *ABIU) exTxServe(tx *bus.Transaction) {
	if tx.Kind != bus.WriteWord {
		panic(fmt.Sprintf("biu: node %d: %v in express tx region", a.node, tx.Kind))
	}
	a.stats.ExpressTx++
	payload := append([]byte(nil), pad8(tx.Data)[:ctrl.ExpressPayload]...)
	a.c.ExpressCompose(a.srvQ, a.srvDest, payload)
}

// snoopExpressRx serves an express receive from a single uncached load.
func (a *ABIU) snoopExpressRx(tx *bus.Transaction) bus.Snoop {
	off := a.m.ExpressRx.Offset(tx.Addr)
	a.srvQ = int(off / 8)
	return bus.Snoop{Action: bus.Claim, Latency: a.cfg.RegLatency, Serve: a.exRxServeFn}
}

func (a *ABIU) exRxServe(tx *bus.Transaction) {
	if tx.Kind != bus.ReadWord {
		panic(fmt.Sprintf("biu: node %d: %v in express rx region", a.node, tx.Kind))
	}
	a.stats.ExpressRx++
	word := a.c.ExpressReceive(a.srvQ)
	copy(tx.Data, word[:])
}

// snoopNuma captures operations in the NUMA window for the sP, retrying
// reads until firmware supplies the data.
func (a *ABIU) snoopNuma(tx *bus.Transaction) bus.Snoop {
	switch tx.Kind {
	case bus.ReadWord, bus.ReadLine, bus.ReadLineX:
		key := tx.Addr &^ (bus.LineSize - 1)
		if tx.Kind == bus.ReadWord {
			key = tx.Addr &^ 7
		}
		if data, ok := a.pendingFill[key]; ok {
			return bus.Snoop{Action: bus.Claim, Latency: a.cfg.RegLatency,
				Serve: func(tx *bus.Transaction) {
					a.stats.NumaFills++
					copy(tx.Data, data)
					delete(a.pendingFill, key)
				}}
		}
		if !a.requested[key] {
			a.requested[key] = true
			a.stats.NumaCaptured++
			a.toSP.Push(CapturedOp{Kind: tx.Kind, Addr: tx.Addr, Size: len(tx.Data)})
		}
		return bus.Snoop{Action: bus.Retry}
	case bus.WriteWord, bus.WriteLine:
		// Synchronous remote store: the operation retries until the home
		// acknowledges it, so a completed store is globally visible.
		key := tx.Addr &^ 7
		if tx.Kind == bus.WriteLine {
			key = tx.Addr &^ (bus.LineSize - 1)
		}
		if a.pendingAck[key] {
			return bus.Snoop{Action: bus.Claim, Latency: a.cfg.RegLatency,
				Serve: func(tx *bus.Transaction) {
					a.stats.NumaAcks++
					delete(a.pendingAck, key)
				}}
		}
		if !a.requested[key] {
			a.requested[key] = true
			a.stats.NumaCaptured++
			a.toSP.Push(CapturedOp{Kind: tx.Kind, Addr: tx.Addr, Size: len(tx.Data),
				Data: append([]byte(nil), tx.Data...)})
		}
		return bus.Snoop{Action: bus.Retry}
	default:
		return bus.Snoop{}
	}
}

// snoopScoma checks clsSRAM state and applies the action table. It never
// claims: on success the local memory controller serves the line.
func (a *ABIU) snoopScoma(tx *bus.Transaction) bus.Snoop {
	lineIdx := int(a.m.Scoma.Offset(tx.Addr)) / bus.LineSize
	st := a.cls.Get(lineIdx)
	act := scomaActions[kindIndex(tx.Kind)][st]
	if act.PassSP && !a.notified[lineIdx] {
		a.notified[lineIdx] = true
		a.stats.ScomaCaptured++
		op := CapturedOp{Kind: tx.Kind, Addr: tx.Addr, Size: len(tx.Data), Scoma: true}
		if !tx.Kind.IsRead() && tx.Kind != bus.Kill {
			op.Data = append([]byte(nil), tx.Data...)
		}
		a.toSP.Push(op)
	}
	if act.Retry {
		a.stats.ScomaRetries++
		return bus.Snoop{Action: bus.Retry}
	}
	if !act.Retry && !act.PassSP {
		// Completed episode: re-arm notification for this line.
		delete(a.notified, lineIdx)
	}
	if tx.Kind == bus.ReadLine && st == sram.CLReadOnly {
		// Assert the shared line so the aP cache cannot install the line
		// exclusively: a later store must raise a bus upgrade for the
		// state check to catch.
		return bus.Snoop{Shared: true}
	}
	return bus.Snoop{}
}

// pad8 returns an 8-byte view of word data (bus words can be 1..8 bytes).
func pad8(d []byte) []byte {
	if len(d) == 8 {
		return d
	}
	b := make([]byte, 8)
	copy(b, d)
	return b
}

// SBIU is the sP-side bus interface unit. The service processor in this
// model is the firmware engine; the sBIU gives it structured access to the
// capture queue and the immediate CTRL interface.
type SBIU struct {
	a *ABIU
	c *ctrl.Ctrl
}

// NewSBIU pairs the sBIU with its aBIU and CTRL.
func NewSBIU(a *ABIU, c *ctrl.Ctrl) *SBIU { return &SBIU{a: a, c: c} }

// Captured returns the aBIU→sBIU queue of forwarded bus operations.
func (s *SBIU) Captured() *sim.Queue[CapturedOp] { return s.a.toSP }

// Ctrl returns the immediate command interface to CTRL.
func (s *SBIU) Ctrl() *ctrl.Ctrl { return s.c }

// ABIU returns the paired aBIU (for SupplyFill / table reloads).
func (s *SBIU) ABIU() *ABIU { return s.a }
