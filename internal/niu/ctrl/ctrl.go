// Package ctrl models the CTRL ASIC — layer 2 of StarT-Voyager's
// communication architecture. CTRL owns the protected message-queue
// abstraction: 16 transmit and 16 receive hardware queues with
// producer/consumer pointers (shadowed into SRAM for processor polling),
// prioritized transmit arbitration, destination translation through an
// AND/OR mask and an SRAM-resident table, receive-queue caching with a
// miss/overflow queue, per-queue protection with shutdown-on-violation, two
// ordered local command queues plus a remote command queue, and the block
// read / block transmit units. All data movement inside the NIU crosses the
// IBus, which CTRL arbitrates.
package ctrl

import (
	"encoding/binary"
	"fmt"

	"startvoyager/internal/arctic"
	"startvoyager/internal/bus"
	"startvoyager/internal/niu/sram"
	"startvoyager/internal/niu/txrx"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// txqName/rxqName are precomputed counter-track names so queue-depth
// sampling allocates nothing on the hot path.
var txqName, rxqName [NumQueues]string

func init() {
	for i := range txqName {
		txqName[i] = fmt.Sprintf("txq%d", i)
		rxqName[i] = fmt.Sprintf("rxq%d", i)
	}
}

// NumQueues is the number of hardware transmit and receive queues.
const NumQueues = 16

// SlotHeaderBytes is the software-visible header at the start of every
// transmit/receive queue slot (see Tx slot format in tx.go).
const SlotHeaderBytes = 8

// BusPort is CTRL's path onto the aP memory bus (provided by the aBIU).
type BusPort interface {
	IssueBusOp(tx *bus.Transaction, done func())
}

// NetPort is CTRL's path into the network (provided by the TxU/RxU wiring).
type NetPort interface {
	// Inject sends an encoded frame; tag is the message's causal trace
	// context, carried as sideband next to the wire bytes.
	Inject(dst int, pri arctic.Priority, wire []byte, tag sim.MsgTag)
	// Poke retries deliveries this NIU previously refused (Hold policy).
	Poke()
	// Ready reports whether the fabric can take another packet from this
	// node on the given priority lane; when false, CTRL holds that lane's
	// launches until NetReady is signaled. Lanes are independent so High
	// traffic bypasses a backed-up Low lane.
	Ready(pri arctic.Priority) bool
}

// IntPort carries CTRL's interrupt lines to the service processor.
type IntPort interface {
	// RxInterrupt fires when a message lands in an interrupt-enabled
	// physical receive queue.
	RxInterrupt(phys int)
	// ProtViolation fires when a transmit queue is shut down.
	ProtViolation(q int)
}

// FullPolicy selects what happens to a message for a full receive queue.
type FullPolicy int

const (
	// Hold refuses delivery; the network stalls the packet's priority lane
	// until space frees (can deadlock — the paper calls this out).
	Hold FullPolicy = iota
	// Drop discards the packet.
	Drop
	// Divert sends the packet to the miss/overflow queue.
	Divert
)

// Config holds CTRL's knobs; New takes its wiring as arguments.
type Config struct {
	TxUCycles int // per-packet transmit formatting
	RxUCycles int // per-packet receive formatting
}

// DefaultConfig returns NIU-cycle defaults used by the standard machine.
func DefaultConfig() Config {
	return Config{TxUCycles: 4, RxUCycles: 4}
}

// MissQueue is the physical receive queue to which unresident logical
// destinations and Divert overflow are steered.
const MissQueue = 14

// TxConfig configures one hardware transmit queue.
type TxConfig struct {
	Buf        *sram.SRAM // aSRAM or sSRAM bank holding the slots
	Base       uint32     // slot array base offset in Buf
	EntryBytes int        // slot size (96 for Basic, 8 for Express)
	Entries    int        // number of slots
	ShadowBase uint32     // pointer shadow offset in Buf (8 bytes)

	Express      bool   // 8-byte express slots composed by the aBIU
	Translate    bool   // apply destination translation
	AndMask      uint16 // translation pre-masks
	OrMask       uint16
	RawAllowed   bool   // permit untranslated (raw) messages
	Priority     int    // arbitration class (lower value = served first)
	AllowedDests uint64 // bitmask of permitted physical destinations
	Enabled      bool
}

// RxConfig configures one hardware receive queue.
type RxConfig struct {
	Buf        *sram.SRAM
	Base       uint32
	EntryBytes int
	Entries    int
	ShadowBase uint32

	Logical   uint16 // resident logical queue number
	Express   bool   // slots use the 8-byte express format
	Interrupt bool   // raise RxInterrupt on arrival
	Full      FullPolicy
	Enabled   bool
}

type txQueue struct {
	cfg      TxConfig
	producer uint32
	consumer uint32
	shutdown bool
	// parked marks a queue whose head message targets a backpressured
	// network lane; the arbiter skips it (so other lanes keep flowing)
	// until the fabric signals room.
	parked    bool
	parkedPri arctic.Priority
	// tags is the per-slot causal trace sideband (indexed ptr mod Entries),
	// written when a slot is composed and read when CTRL launches it.
	tags []sim.MsgTag
}

type rxQueue struct {
	cfg      RxConfig
	producer uint32
	consumer uint32
	reserved uint32 // accepted but not yet written (in-flight through IBus)
	holding  bool   // refused a delivery; poke the fabric on space
	// tags is the per-slot causal trace sideband (indexed ptr mod Entries),
	// written when the RxU lands a message and read by its consumer.
	tags []sim.MsgTag
}

//voyager:noalloc
func (q *txQueue) pending() uint32 { return q.producer - q.consumer }

//voyager:noalloc
func (q *rxQueue) used() uint32 { return q.producer + q.reserved - q.consumer }

//voyager:noalloc
func (q *rxQueue) full() bool { return q.used() >= uint32(q.cfg.Entries) }

// Stats counts CTRL activity.
type Stats struct {
	TxMessages, RxMessages uint64
	TxBytes, RxBytes       uint64
	RxMisses               uint64 // steered to the miss queue
	RxDrops                uint64
	RxGarbage              uint64 // undecodable frames (checksum/format) dropped
	RxHolds                uint64 // deliveries refused (Hold backpressure)
	ProtViolations         uint64
	LocalCmds, RemoteCmds  uint64
	BlockReads, BlockTxs   uint64
	TagOns                 uint64
}

// Ctrl is one node's CTRL ASIC.
type Ctrl struct {
	eng    *sim.Engine
	myNode int
	cfg    Config

	cycle        sim.Time  // NIU clock (bus-synchronous)
	paceFlit     sim.Time  // block-transmit pacing per flit
	transEntries int       // translation table size
	scoma        bus.Range // S-COMA window for remote clsSRAM updates

	aSRAM *sram.SRAM
	sSRAM *sram.SRAM
	cls   *sram.Cls

	busPort BusPort
	net     NetPort
	ints    IntPort

	ibus *sim.Resource

	tx [NumQueues]txQueue
	rx [NumQueues]rxQueue

	txBusy bool
	txRR   int // round-robin cursor within a priority class

	local  [2]*cmdQueue
	remote *remoteQueue

	// emitPending holds launches deferred by fabric backpressure, one FIFO
	// per priority lane.
	emitPending [2][]pendingEmit

	blockRead *blockUnit
	blockTx   *blockUnit

	// Launch staging (tx.go). The launch pipeline — kickTx, slot read, TagOn
	// pull, translation, emit, completion — is serialized end to end by
	// txBusy, so one staged record replaces the closure chain the pipeline
	// used to allocate per message. A parked or violated launch abandons the
	// staged state; the head slot is re-read on relaunch.
	lnQ       int        // transmit queue being launched
	lnOff     uint32     // SRAM offset of the head slot
	lnTag     sim.MsgTag // trace tag of the head slot
	lnSlot    []byte     // slot scratch (grows to the largest EntryBytes)
	lnFrame   txrx.Frame // frame scratch; Payload capacity is reused
	lnDest    uint16     // virtual (or raw physical) destination
	lnFlags   byte       // slot flags
	lnRawLQ   uint16     // logical queue for untranslated messages
	lnTagBank *sram.SRAM // TagOn source bank
	lnTagOff  uint32
	lnTagLen  int
	lnTrIdx   int // translation table index
	lnReadFn  func()
	lnTagOnFn func()
	lnTransFn func()
	lnDoneFn  func()

	// emFree recycles emitOp records (TxU inject events); rxFree recycles
	// rxOp records (RxU landing chains, several may be in flight per queue);
	// frFree recycles decoded receive frames (see frameGet for ownership).
	emFree []*emitOp
	rxFree []*rxOp
	frFree []*txrx.Frame
	// rxSlot is the receive-landing compose scratch; it is zeroed before
	// every use because the whole slot is written to SRAM (simulation-visible
	// state must not inherit stale bytes from a previous landing).
	rxSlot []byte

	stats      Stats
	rxSizeHist *stats.Histogram // received payload bytes
}

// New builds a CTRL for node myNode over the given SRAMs. The rest is
// wiring from the node's assembly: cycle is the NIU clock, which runs
// synchronous to the node's 60X bus; paceFlit is the per-flit link time
// the block-transmit unit paces itself to (arctic.FlitBytes per flit);
// transEntries bounds the masked virtual destination space of the
// translation table at sSRAM offset 0; and scoma is the window in which
// remote WriteDramCls/SetCls commands convert physical addresses into
// clsSRAM line indices.
func New(eng *sim.Engine, myNode int, aS, sS *sram.SRAM, cls *sram.Cls, cfg Config,
	cycle, paceFlit sim.Time, transEntries int, scoma bus.Range) *Ctrl {
	c := &Ctrl{
		eng: eng, myNode: myNode, cfg: cfg,
		cycle: cycle, paceFlit: paceFlit, transEntries: transEntries, scoma: scoma,
		aSRAM: aS, sSRAM: sS, cls: cls,
		ibus:       sim.NewResource(eng, fmt.Sprintf("ibus%d", myNode)),
		rxSizeHist: stats.NewHistogram(8, 16, 32, 64, 96),
	}
	c.ibus.Observe(myNode, "niu")
	c.local[0] = &cmdQueue{c: c}
	c.local[1] = &cmdQueue{c: c}
	c.remote = newRemoteQueue(c)
	c.blockRead = &blockUnit{}
	c.blockTx = &blockUnit{}
	c.lnReadFn = c.lnRead
	c.lnTagOnFn = c.lnTagOn
	c.lnTransFn = c.lnTrans
	c.lnDoneFn = c.lnDone
	return c
}

// frameGet returns a receive-frame scratch record. Ownership rules: a frame
// obtained here is recycled with framePut exactly once, by whoever holds it
// when it dies (see TryReceive/acceptInto). Command frames are never
// recycled — remote command execution retains them (and may alias their
// payloads) past the receive call.
//
//voyager:noalloc
func (c *Ctrl) frameGet() *txrx.Frame {
	if n := len(c.frFree); n > 0 {
		f := c.frFree[n-1]
		c.frFree = c.frFree[:n-1]
		return f
	}
	return &txrx.Frame{} //voyager:alloc-ok(pool warm-up; recycled thereafter)
}

// framePut recycles a dead receive frame. Payload capacity is kept; the
// trace tag is cleared so a stale tag can never leak into the next message.
//
//voyager:noalloc
func (c *Ctrl) framePut(f *txrx.Frame) {
	f.Trace = sim.MsgTag{}
	c.frFree = append(c.frFree, f) //voyager:alloc-ok(amortized: pool backing array is retained)
}

// SetPorts wires CTRL to its bus master, network, and interrupt sinks.
func (c *Ctrl) SetPorts(b BusPort, n NetPort, i IntPort) {
	c.busPort, c.net, c.ints = b, n, i
}

// Node returns the node number.
func (c *Ctrl) Node() int { return c.myNode }

// Engine returns the simulation engine.
func (c *Ctrl) Engine() *sim.Engine { return c.eng }

// Stats returns a snapshot of counters.
func (c *Ctrl) Stats() Stats { return c.stats }

// IBusBusyTime returns accumulated IBus occupancy.
func (c *Ctrl) IBusBusyTime() sim.Time { return c.ibus.BusyTime() }

// RegisterMetrics registers CTRL's counters under r.
func (c *Ctrl) RegisterMetrics(r *stats.Registry) {
	r.Gauge("tx_messages", func() int64 { return int64(c.stats.TxMessages) })
	r.Gauge("rx_messages", func() int64 { return int64(c.stats.RxMessages) })
	r.Gauge("tx_bytes", func() int64 { return int64(c.stats.TxBytes) })
	r.Gauge("rx_bytes", func() int64 { return int64(c.stats.RxBytes) })
	r.Gauge("rx_misses", func() int64 { return int64(c.stats.RxMisses) })
	r.Gauge("rx_drops", func() int64 { return int64(c.stats.RxDrops) })
	r.Gauge("rx_holds", func() int64 { return int64(c.stats.RxHolds) })
	r.Gauge("rx_garbage", func() int64 { return int64(c.stats.RxGarbage) })
	r.Gauge("prot_violations", func() int64 { return int64(c.stats.ProtViolations) })
	r.Gauge("local_cmds", func() int64 { return int64(c.stats.LocalCmds) })
	r.Gauge("remote_cmds", func() int64 { return int64(c.stats.RemoteCmds) })
	r.Gauge("block_reads", func() int64 { return int64(c.stats.BlockReads) })
	r.Gauge("block_txs", func() int64 { return int64(c.stats.BlockTxs) })
	r.Gauge("tagons", func() int64 { return int64(c.stats.TagOns) })
	r.Time("ibus_busy", c.ibus.BusyTime)
	r.Histogram("rx_payload_bytes", c.rxSizeHist)
	// Per-queue depth gauges for the queues configured at registration time
	// (node assembly programs its queues before the machine registers), so
	// the windowed sampler can chart occupancy — rising rx depth per window
	// is the receiver-side face of tree saturation.
	for q := 0; q < NumQueues; q++ {
		q := q
		if c.tx[q].cfg.Buf != nil {
			r.Gauge(txqName[q]+"_depth", func() int64 { return int64(c.tx[q].pending()) })
		}
		if c.rx[q].cfg.Buf != nil {
			r.Gauge(rxqName[q]+"_depth", func() int64 { return int64(c.rx[q].used()) })
		}
	}
}

// sampleTx emits transmit queue q's depth on the node's "ctrl" track.
//
//voyager:noalloc
func (c *Ctrl) sampleTx(q int) {
	if c.eng.Observed() {
		c.eng.Sample(c.myNode, "ctrl", txqName[q], int64(c.tx[q].pending()))
	}
}

// sampleRx emits receive queue q's depth on the node's "ctrl" track.
//
//voyager:noalloc
func (c *Ctrl) sampleRx(q int) {
	if c.eng.Observed() {
		c.eng.Sample(c.myNode, "ctrl", rxqName[q], int64(c.rx[q].used()))
	}
}

// StageTxTag records the causal trace tag for the transmit slot being
// composed at ptr on queue q. The tag is sideband state next to the slot
// bytes — the publisher (aP library or aBIU) writes it together with the
// slot, before the producer pointer makes the slot visible to CTRL.
//
//voyager:noalloc
func (c *Ctrl) StageTxTag(q int, ptr uint32, tag sim.MsgTag) {
	c.checkQ(q)
	tq := &c.tx[q]
	if len(tq.tags) > 0 {
		tq.tags[int(ptr)%len(tq.tags)] = tag
	}
}

// txTag reads the trace tag staged for transmit slot ptr of queue q.
//
//voyager:noalloc
func (c *Ctrl) txTag(q int, ptr uint32) sim.MsgTag {
	tq := &c.tx[q]
	if len(tq.tags) == 0 {
		return sim.MsgTag{}
	}
	return tq.tags[int(ptr)%len(tq.tags)]
}

// RxTag returns the trace tag of the message in receive slot ptr of queue q
// (sideband next to the slot bytes; consumers read it alongside the slot).
//
//voyager:noalloc
func (c *Ctrl) RxTag(q int, ptr uint32) sim.MsgTag {
	c.checkQ(q)
	rq := &c.rx[q]
	if len(rq.tags) == 0 {
		return sim.MsgTag{}
	}
	return rq.tags[int(ptr)%len(rq.tags)]
}

// Cls exposes the clsSRAM (written by remote commands and firmware).
func (c *Ctrl) Cls() *sram.Cls { return c.cls }

// ASram exposes the aSRAM bank.
func (c *Ctrl) ASram() *sram.SRAM { return c.aSRAM }

// SSram exposes the sSRAM bank.
func (c *Ctrl) SSram() *sram.SRAM { return c.sSRAM }

// cycles converts NIU cycles to time.
//
//voyager:noalloc
func (c *Ctrl) cycles(n int) sim.Time { return sim.Time(n) * c.cycle }

// ibusMove occupies the IBus long enough to move n bytes (8 bytes/cycle,
// minimum one cycle), then runs done. Callers pass prebound method values,
// not fresh closures, so done itself costs nothing on the hot path.
//
//voyager:noalloc
func (c *Ctrl) ibusMove(n int, done func()) {
	cyc := (n + 7) / 8
	if cyc < 1 {
		cyc = 1
	}
	c.ibus.Use(c.cycles(cyc), done)
}

// --- queue configuration (the "system register" interface) ---

// ConfigureTx programs transmit queue q.
func (c *Ctrl) ConfigureTx(q int, cfg TxConfig) {
	c.checkQ(q)
	if cfg.EntryBytes <= 0 || cfg.Entries <= 0 || cfg.Buf == nil {
		panic(fmt.Sprintf("ctrl: bad tx config for queue %d", q))
	}
	c.tx[q] = txQueue{cfg: cfg, tags: make([]sim.MsgTag, cfg.Entries)}
	c.shadowTx(q)
}

// ConfigureRx programs receive queue q.
func (c *Ctrl) ConfigureRx(q int, cfg RxConfig) {
	c.checkQ(q)
	if cfg.EntryBytes <= 0 || cfg.Entries <= 0 || cfg.Buf == nil {
		panic(fmt.Sprintf("ctrl: bad rx config for queue %d", q))
	}
	c.rx[q] = rxQueue{cfg: cfg, tags: make([]sim.MsgTag, cfg.Entries)}
	c.shadowRx(q)
}

// TxQueueConfig returns the live configuration of transmit queue q.
func (c *Ctrl) TxQueueConfig(q int) TxConfig { c.checkQ(q); return c.tx[q].cfg }

// RxQueueConfig returns the live configuration of receive queue q.
func (c *Ctrl) RxQueueConfig(q int) RxConfig { c.checkQ(q); return c.rx[q].cfg }

// SetTxEnabled enables or disables a transmit queue (firmware re-enables a
// queue after a protection shutdown this way).
func (c *Ctrl) SetTxEnabled(q int, on bool) {
	c.checkQ(q)
	c.tx[q].cfg.Enabled = on
	c.tx[q].shutdown = false
	if on {
		c.kickTx()
	}
}

// SetTxPriority updates a queue's arbitration class (the dynamically
// reconfigurable priority register of the paper).
func (c *Ctrl) SetTxPriority(q, prio int) {
	c.checkQ(q)
	c.tx[q].cfg.Priority = prio
}

// SetTxAllowedDests updates a queue's destination permission mask (a
// privileged system-register write; pointers are unaffected).
func (c *Ctrl) SetTxAllowedDests(q int, mask uint64) {
	c.checkQ(q)
	c.tx[q].cfg.AllowedDests = mask
}

//voyager:noalloc
func (c *Ctrl) checkQ(q int) {
	if q < 0 || q >= NumQueues {
		panic(fmt.Sprintf("ctrl: queue %d out of range", q)) //voyager:alloc-ok(panic path)
	}
}

// --- pointers ---

// TxProducerUpdate publishes a new transmit producer counter (absolute,
// free-running); CTRL launches the newly composed messages in order.
//
//voyager:noalloc
func (c *Ctrl) TxProducerUpdate(q int, producer uint32) {
	c.checkQ(q)
	tq := &c.tx[q]
	if producer-tq.consumer > uint32(tq.cfg.Entries) {
		panic(fmt.Sprintf("ctrl: tx%d producer %d overruns consumer %d (%d entries)", //voyager:alloc-ok(panic path)
			q, producer, tq.consumer, tq.cfg.Entries))
	}
	if producer == tq.producer {
		return
	}
	tq.producer = producer
	c.shadowTx(q)
	c.sampleTx(q)
	c.kickTx()
}

// RxConsumerUpdate publishes a new receive consumer counter, freeing slots.
//
//voyager:noalloc
func (c *Ctrl) RxConsumerUpdate(q int, consumer uint32) {
	c.checkQ(q)
	rq := &c.rx[q]
	if consumer-rq.consumer > rq.used() {
		panic(fmt.Sprintf("ctrl: rx%d consumer %d passes producer %d", q, consumer, rq.producer)) //voyager:alloc-ok(panic path)
	}
	rq.consumer = consumer
	c.shadowRx(q)
	c.sampleRx(q)
	if rq.holding && !rq.full() {
		rq.holding = false
		c.net.Poke()
	}
}

// TxConsumer returns the transmit consumer counter (how far CTRL has
// launched).
//
//voyager:noalloc
func (c *Ctrl) TxConsumer(q int) uint32 { c.checkQ(q); return c.tx[q].consumer }

// TxProducer returns the transmit producer counter.
//
//voyager:noalloc
func (c *Ctrl) TxProducer(q int) uint32 { c.checkQ(q); return c.tx[q].producer }

// RxProducer returns the receive producer counter (messages available).
//
//voyager:noalloc
func (c *Ctrl) RxProducer(q int) uint32 { c.checkQ(q); return c.rx[q].producer }

// RxConsumer returns the receive consumer counter.
//
//voyager:noalloc
func (c *Ctrl) RxConsumer(q int) uint32 { c.checkQ(q); return c.rx[q].consumer }

// TxShutdown reports whether queue q was shut down by protection.
//
//voyager:noalloc
func (c *Ctrl) TxShutdown(q int) bool { c.checkQ(q); return c.tx[q].shutdown }

// TxBacklog totals the work CTRL has accepted but not finished launching:
// produced-but-unconsumed transmit descriptors across every queue, plus
// launches deferred by fabric backpressure. Zero is part of the machine's
// end-of-run quiescence invariant — a nonzero backlog after the event queue
// drains means a send was accepted and then silently wedged.
func (c *Ctrl) TxBacklog() int {
	n := 0
	for q := range c.tx {
		n += int(c.tx[q].pending())
	}
	n += len(c.emitPending[0]) + len(c.emitPending[1])
	return n
}

// shadowTx mirrors tx pointers into SRAM so processors can poll them.
//
//voyager:noalloc
func (c *Ctrl) shadowTx(q int) {
	tq := &c.tx[q]
	if tq.cfg.Buf == nil {
		return
	}
	var b [8]byte
	binary.BigEndian.PutUint32(b[0:], tq.producer)
	binary.BigEndian.PutUint32(b[4:], tq.consumer)
	tq.cfg.Buf.Write(tq.cfg.ShadowBase, b[:])
}

//voyager:noalloc
func (c *Ctrl) shadowRx(q int) {
	rq := &c.rx[q]
	if rq.cfg.Buf == nil {
		return
	}
	var b [8]byte
	binary.BigEndian.PutUint32(b[0:], rq.producer)
	binary.BigEndian.PutUint32(b[4:], rq.consumer)
	rq.cfg.Buf.Write(rq.cfg.ShadowBase, b[:])
}

// SlotOffset returns the SRAM offset of slot (ptr mod entries) of a queue
// laid out at base with the given entry size.
//
//voyager:noalloc
func SlotOffset(base uint32, entryBytes, entries int, ptr uint32) uint32 {
	return base + uint32(int(ptr%uint32(entries))*entryBytes)
}

// --- translation table ---

// TransEntry is one destination translation table entry.
type TransEntry struct {
	PhysNode uint16
	LogicalQ uint16
	Priority arctic.Priority
	Valid    bool
}

// WriteTransEntry stores a translation entry at index idx (setup/firmware
// path; timing is the caller's concern). The table's 8-byte entries start
// at sSRAM offset 0.
func (c *Ctrl) WriteTransEntry(idx int, e TransEntry) {
	if idx < 0 || idx >= c.transEntries {
		panic(fmt.Sprintf("ctrl: translation index %d out of range", idx))
	}
	var b [8]byte
	binary.BigEndian.PutUint16(b[0:], e.PhysNode)
	binary.BigEndian.PutUint16(b[2:], e.LogicalQ)
	flags := byte(0)
	if e.Valid {
		flags |= 1
	}
	if e.Priority == arctic.High {
		flags |= 2
	}
	b[4] = flags
	c.sSRAM.Write(uint32(idx)*8, b[:])
}

// readTransEntry fetches and decodes entry idx from sSRAM.
//
//voyager:noalloc
func (c *Ctrl) readTransEntry(idx int) TransEntry {
	var b [8]byte
	c.sSRAM.Read(uint32(idx)*8, b[:])
	pr := arctic.Low
	if b[4]&2 != 0 {
		pr = arctic.High
	}
	return TransEntry{
		PhysNode: binary.BigEndian.Uint16(b[0:]),
		LogicalQ: binary.BigEndian.Uint16(b[2:]),
		Priority: pr,
		Valid:    b[4]&1 != 0,
	}
}
