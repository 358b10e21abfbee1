// Package node assembles one StarT-Voyager node: the stock SMP half (aP
// cache, DRAM, 60X bus) plus the NIU occupying the second processor slot
// (aBIU/sBIU, CTRL, SRAMs, TxU/RxU wiring, and the sP firmware engine), with
// the standard address map and queue layout used by the default software.
package node

import (
	"fmt"

	"startvoyager/internal/arctic"
	"startvoyager/internal/bus"
	"startvoyager/internal/cache"
	"startvoyager/internal/firmware"
	"startvoyager/internal/mem"
	"startvoyager/internal/niu/biu"
	"startvoyager/internal/niu/ctrl"
	"startvoyager/internal/niu/sram"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// The standard physical address map (identical on every node).
const (
	DramBase = 0x0000_0000

	NumaBase = 0x4000_0000 // remote-memory window
	NumaSize = 0x1000_0000 // 256 MB modeled window (paper: 1 GB region)

	ScomaBase = 0x8000_0000

	ReflectBase = 0xA000_0000 // reflective-memory window

	SramBase = 0xF000_0000 // aSRAM direct map
	PtrBase  = 0xF010_0000 // pointer update/poll region
	ExTxBase = 0xF020_0000 // express transmit region
	ExRxBase = 0xF030_0000 // express receive region
	ExTxSize = 1 << 19
	PtrSize  = 4 << 10
	ExRxSize = 4 << 10
)

// Hardware queue assignments (the default software convention).
const (
	TxBasic   = 0 // aP basic transmit queue
	TxExpress = 1 // aP express transmit queue

	RxBasic     = 0  // aP basic receive queue
	RxExpress   = 1  // aP express receive queue
	RxNotify    = 2  // completion notifications (DMA, block transfer)
	RxRel       = 11 // reliably-delivered payloads (R-Basic service)
	RxRelStatus = 12 // reliable-send completion statuses
	RxSvc       = 13 // sP service queue (interrupting)

	RxMiss = ctrl.MissQueue // miss/overflow queue (interrupting), fixed by CTRL
)

// Logical receive queue numbers (network-visible names).
const (
	LqBasic   uint16 = 0x0001
	LqExpress uint16 = 0x0002
	LqNotify         = firmware.NotifyLogicalQ
)

// MaxNodes is the largest buildable cluster. The Express transmit region
// encodes (queue<<12 | index) in a store address with a 12-bit index field,
// so translation indices — and therefore the node count — top out at 2048
// with room for the four-region table.
const MaxNodes = 2048

// TransStride returns the per-region translation-table stride for a machine
// of numNodes nodes: exactly 64 (the historical fixed layout, so small
// configurations stay byte-identical) up to 64 nodes, and the next power of
// two >= numNodes beyond that, bounded at MaxNodes by the Express
// store-address encoding.
func TransStride(numNodes int) int {
	s := 64
	for s < numNodes {
		s <<= 1
	}
	if s > MaxNodes {
		panic(fmt.Sprintf("node: %d nodes exceed the %d-node express-addressing limit", numNodes, MaxNodes))
	}
	return s
}

// Queue geometry.
const (
	BasicSlotBytes = 96
	BasicEntries   = 16
	ExpressEntries = 32
	SvcEntries     = 64
)

// aSRAM layout.
const (
	shadowBase       = 0x0000 // 16 tx + 16 rx shadow pairs (8 bytes each)
	SramTxBasicBuf   = 0x0200
	SramTxExpressBuf = SramTxBasicBuf + BasicSlotBytes*BasicEntries
	SramRxBasicBuf   = SramTxExpressBuf + ctrl.ExpressSlotBytes*ExpressEntries
	SramRxExpressBuf = SramRxBasicBuf + BasicSlotBytes*BasicEntries
	SramRxNotifyBuf  = SramRxExpressBuf + ctrl.ExpressSlotBytes*ExpressEntries
	SramRxRelBuf     = SramRxNotifyBuf + BasicSlotBytes*BasicEntries
	SramRxRelStatBuf = SramRxRelBuf + BasicSlotBytes*BasicEntries
	// UserASram is the first aSRAM offset free for applications (TagOn
	// payloads, experiment staging).
	UserASram = SramRxRelStatBuf + BasicSlotBytes*BasicEntries

	// DmaStagingOff and DmaStagingLen place the firmware DMA staging area
	// at the top of the aSRAM.
	DmaStagingLen = 8 << 10
)

// SSramLayout is the numNodes-dependent sSRAM allocation: the translation
// table (4 regions * stride entries * 8 bytes, see TransImage) at offset 0,
// where CTRL reads it, then the sP shadow pairs, the service and miss queue
// buffers, and free space. For clusters of up to 64 nodes this is exactly
// the historical fixed layout (shadows 0x0800, service buffer 0x1000, miss
// buffer 0x2800).
type SSramLayout struct {
	SShadow uint32 // sP shadow-pair region base
	SvcBuf  uint32 // service queue buffer base
	MissBuf uint32 // miss/overflow queue buffer base
	User    uint32 // first offset free for firmware extensions
}

// SSramLayoutFor computes the layout for a cluster of numNodes nodes.
func SSramLayoutFor(numNodes int) SSramLayout {
	stride := uint32(TransStride(numNodes))
	var l SSramLayout
	l.SShadow = 4 * stride * 8
	l.SvcBuf = l.SShadow + 0x800
	l.MissBuf = l.SvcBuf + BasicSlotBytes*SvcEntries
	l.User = l.MissBuf + BasicSlotBytes*SvcEntries
	return l
}

// UserSSram is the first sSRAM offset free for firmware extensions on
// clusters of up to 64 nodes (see SSramLayoutFor for larger machines).
const UserSSram = 0x2800 + BasicSlotBytes*SvcEntries

// Memory sizes of every node.
const (
	DramSize  = 16 << 20
	ASramSize = 128 << 10
	SSramSize = 128 << 10
)

// Config holds per-node construction parameters. New uses them as given, so
// a zero field means zero; start from DefaultConfig.
type Config struct {
	Bus     bus.Config
	Cache   cache.Config
	Ctrl    ctrl.Config
	Biu     biu.Config
	Costs   firmware.Costs
	DramLat sim.Time // DRAM access latency
}

// DefaultConfig returns the standard node: each component's own defaults
// and 60 ns DRAM.
func DefaultConfig() Config {
	return Config{
		Bus:     bus.DefaultConfig(),
		Cache:   cache.DefaultConfig(),
		Ctrl:    ctrl.DefaultConfig(),
		Biu:     biu.DefaultConfig(),
		Costs:   firmware.DefaultCosts(),
		DramLat: 60 * sim.Nanosecond,
	}
}

// Node is one assembled StarT-Voyager node.
type Node struct {
	ID  int
	Eng *sim.Engine

	Bus   *bus.Bus
	Dram  *mem.DRAM
	Cache *cache.Cache

	ASram   *sram.SRAM
	SSram   *sram.SRAM
	ClsSram *sram.Cls
	Ctrl    *ctrl.Ctrl
	ABIU    *biu.ABIU
	SBIU    *biu.SBIU
	FW      *firmware.Engine

	Map    biu.Map
	lay    SSramLayout
	stride int // translation-region stride for this machine's node count

	// APMeter accrues application-processor occupancy (started/stopped by
	// the core library around aP activity).
	APMeter *stats.Meter

	fabric arctic.Fabric
}

// New builds node id of a numNodes-node machine, with its queues programmed
// (see programQueues). The rest is wiring from the machine's assembly:
// flitTime is the fabric's per-flit link time, which CTRL's block-transmit
// unit paces itself to; scomaSize and reflectSize size the S-COMA and
// reflective-memory windows (0 disables either); and trans is the machine's
// TransImage(numNodes), which the node's sSRAM reads until the node writes
// a translation entry of its own.
func New(eng *sim.Engine, id int, fabric arctic.Fabric, cfg Config, numNodes int,
	flitTime sim.Time, scomaSize, reflectSize uint32, trans *sram.Image) *Node {
	n := &Node{ID: id, Eng: eng, fabric: fabric,
		lay: SSramLayoutFor(numNodes), stride: TransStride(numNodes),
		APMeter: stats.NewMeter(eng, fmt.Sprintf("aP%d", id))}

	n.Bus = bus.New(eng, fmt.Sprintf("bus%d", id), cfg.Bus)
	n.Bus.SetNode(id)
	n.Dram = mem.New(bus.Range{Base: DramBase, Size: DramSize}, cfg.DramLat)
	n.Cache = cache.New(fmt.Sprintf("l2-%d", id), n.Bus, cfg.Cache)
	n.Cache.SetNode(id)
	n.Cache.SetWritebackSink(n.Dram.Poke)

	n.ASram = sram.New(fmt.Sprintf("aSRAM%d", id), ASramSize)
	n.SSram = sram.NewOver(fmt.Sprintf("sSRAM%d", id), SSramSize, trans)

	n.Map = biu.Map{
		Sram:      bus.Range{Base: SramBase, Size: ASramSize},
		Ptr:       bus.Range{Base: PtrBase, Size: PtrSize},
		ExpressTx: bus.Range{Base: ExTxBase, Size: ExTxSize},
		ExpressRx: bus.Range{Base: ExRxBase, Size: ExRxSize},
		Numa:      bus.Range{Base: NumaBase, Size: NumaSize},
		Scoma:     bus.Range{Base: ScomaBase, Size: scomaSize},
		Reflect:   bus.Range{Base: ReflectBase, Size: reflectSize},
	}

	if scomaSize > 0 {
		n.ClsSram = sram.NewCls(int(scomaSize) / bus.LineSize)
		// Back the S-COMA window with frames at the top of DRAM.
		n.Dram.AddAlias(n.Map.Scoma, DramSize-scomaSize)
	} else {
		n.ClsSram = sram.NewCls(1)
	}
	if reflectSize > 0 {
		// Back the reflective window with frames below the S-COMA frames.
		n.Dram.AddAlias(n.Map.Reflect, DramSize-scomaSize-reflectSize)
	}
	// CTRL is bus-synchronous: it runs on the 60X bus clock.
	n.Ctrl = ctrl.New(eng, id, n.ASram, n.SSram, n.ClsSram, cfg.Ctrl,
		cfg.Bus.CycleTime, flitTime, 4*n.stride, n.Map.Scoma)
	n.ABIU = biu.NewABIU(eng, id, n.Bus, n.Ctrl, n.ASram, n.ClsSram, n.Map, cfg.Biu)
	n.SBIU = biu.NewSBIU(n.ABIU, n.Ctrl)
	n.FW = firmware.New(eng, id, n.SBIU, cfg.Costs)

	n.Ctrl.SetPorts(n.ABIU, &netAdapter{n: n}, n.FW)
	n.Bus.Attach(n.Dram)
	n.Bus.Attach(n.Cache)
	n.Bus.Attach(n.ABIU)
	fabric.Attach(id, &netAdapter{n: n})
	fabric.SetReadyHook(id, n.Ctrl.NetReady)
	n.programQueues()
	return n
}

// TransImage builds the default translation table of a numNodes-node
// machine as an sSRAM image: four regions of TransStride(numNodes) entries
// (Basic, Express, service, notification; see the Trans*Idx methods), whose
// entry for node i routes to node i's queue of that kind on the Low lane.
// The machine's assembly builds it once and hands it to every node.
func TransImage(numNodes int) *sram.Image {
	stride := TransStride(numNodes)
	table := make([]byte, 4*stride*ctrl.TransEntryBytes)
	for r, lq := range [4]uint16{LqBasic, LqExpress, firmware.SvcLogicalQ, LqNotify} {
		for i := 0; i < numNodes; i++ {
			ctrl.PutTransEntry(table[(r*stride+i)*ctrl.TransEntryBytes:], ctrl.TransEntry{
				PhysNode: uint16(i), LogicalQ: lq, Priority: arctic.Low, Valid: true})
		}
	}
	return sram.NewImage(table)
}

// netAdapter bridges CTRL's NetPort to the Arctic fabric and the fabric's
// Endpoint back into CTRL (the TxU/RxU wiring). Frames cross in the
// fabric's pooled packets: Inject copies CTRL's wire bytes into one, and
// TryDeliver hands CTRL the packet's bytes, which TryReceive decodes (and so
// copies) before the fabric takes the packet back.
type netAdapter struct{ n *Node }

//voyager:noalloc
func (a *netAdapter) Inject(dst int, pri arctic.Priority, wire []byte, tag sim.MsgTag) {
	pkt := a.n.fabric.NewPacket()
	pkt.Src, pkt.Dst, pkt.Priority, pkt.Size, pkt.Trace = a.n.ID, dst, pri, len(wire), tag
	copy(pkt.Wire(), wire)
	a.n.fabric.Inject(pkt)
}

func (a *netAdapter) Poke() { a.n.fabric.Poke(a.n.ID) }

func (a *netAdapter) Ready(pri arctic.Priority) bool { return a.n.fabric.InjectReady(a.n.ID, pri) }

//voyager:noalloc
func (a *netAdapter) TryDeliver(pkt *arctic.Packet) bool {
	return a.n.Ctrl.TryReceive(pkt.Wire(), pkt.Trace)
}

// nodeMetrics is the node's own metric table: the aP's occupancy meter.
var nodeMetrics = stats.NewMetrics(
	stats.MeterOf("aP", func(n *Node) *stats.Meter { return n.APMeter }),
)

// RegisterMetrics registers every component's counters under r (one child
// per component, mirroring the trace track taxonomy).
func (n *Node) RegisterMetrics(r *stats.Registry) {
	nodeMetrics.Register(r, n)
	n.Bus.RegisterMetrics(r.Child("bus"))
	n.Cache.RegisterMetrics(r.Child("cache"))
	n.Dram.RegisterMetrics(r.Child("mem"))
	n.Ctrl.RegisterMetrics(r.Child("ctrl"))
	n.FW.RegisterMetrics(r.Child("fw"))
}

// ScomaWindow returns the S-COMA window range.
func (n *Node) ScomaWindow() bus.Range { return n.Map.Scoma }

// DmaStagingOff returns the aSRAM offset of the DMA staging area.
func (n *Node) DmaStagingOff() uint32 { return ASramSize - DmaStagingLen }

// programQueues programs the standard queue layout.
func (n *Node) programQueues() {
	c := n.Ctrl
	// aP transmit queues.
	c.ConfigureTx(TxBasic, ctrl.TxConfig{
		Buf: n.ASram, Base: SramTxBasicBuf, EntryBytes: BasicSlotBytes, Entries: BasicEntries,
		ShadowBase: shadowBase + TxBasic*8,
		Translate:  true, AndMask: 0xFFFF, RawAllowed: false,
		AllowedDests: ^uint64(0), Enabled: true,
	})
	c.ConfigureTx(TxExpress, ctrl.TxConfig{
		Buf: n.ASram, Base: SramTxExpressBuf, EntryBytes: ctrl.ExpressSlotBytes,
		Entries: ExpressEntries, ShadowBase: shadowBase + TxExpress*8,
		Express: true, Translate: true, AndMask: 0xFFFF,
		AllowedDests: ^uint64(0), Enabled: true,
	})
	// aP receive queues.
	c.ConfigureRx(RxBasic, ctrl.RxConfig{
		Buf: n.ASram, Base: SramRxBasicBuf, EntryBytes: BasicSlotBytes, Entries: BasicEntries,
		ShadowBase: shadowBase + 0x100 + RxBasic*8,
		Logical:    LqBasic, Full: ctrl.Hold, Enabled: true,
	})
	c.ConfigureRx(RxExpress, ctrl.RxConfig{
		Buf: n.ASram, Base: SramRxExpressBuf, EntryBytes: ctrl.ExpressSlotBytes,
		Entries: ExpressEntries, ShadowBase: shadowBase + 0x100 + RxExpress*8,
		Logical: LqExpress, Express: true, Full: ctrl.Drop, Enabled: true,
	})
	c.ConfigureRx(RxNotify, ctrl.RxConfig{
		Buf: n.ASram, Base: SramRxNotifyBuf, EntryBytes: BasicSlotBytes, Entries: BasicEntries,
		ShadowBase: shadowBase + 0x100 + RxNotify*8,
		Logical:    LqNotify, Full: ctrl.Hold, Enabled: true,
	})
	c.ConfigureRx(RxRel, ctrl.RxConfig{
		Buf: n.ASram, Base: SramRxRelBuf, EntryBytes: BasicSlotBytes, Entries: BasicEntries,
		ShadowBase: shadowBase + 0x100 + RxRel*8,
		Logical:    firmware.RelLogicalQ, Full: ctrl.Hold, Enabled: true,
	})
	c.ConfigureRx(RxRelStatus, ctrl.RxConfig{
		Buf: n.ASram, Base: SramRxRelStatBuf, EntryBytes: BasicSlotBytes, Entries: BasicEntries,
		ShadowBase: shadowBase + 0x100 + RxRelStatus*8,
		Logical:    firmware.RelStatusLogicalQ, Full: ctrl.Hold, Enabled: true,
	})
	// sP queues (in sSRAM, interrupting).
	c.ConfigureRx(RxSvc, ctrl.RxConfig{
		Buf: n.SSram, Base: n.lay.SvcBuf, EntryBytes: BasicSlotBytes, Entries: SvcEntries,
		ShadowBase: n.lay.SShadow + RxSvc*8,
		Logical:    firmware.SvcLogicalQ, Interrupt: true, Full: ctrl.Hold, Enabled: true,
	})
	c.ConfigureRx(RxMiss, ctrl.RxConfig{
		Buf: n.SSram, Base: n.lay.MissBuf, EntryBytes: BasicSlotBytes, Entries: SvcEntries,
		ShadowBase: n.lay.SShadow + RxMiss*8,
		Logical:    firmware.MissLogicalQ, Interrupt: true, Full: ctrl.Hold, Enabled: true,
	})
}

// TransBasicIdx returns the translation-table index routing a Basic message
// to node dest on this machine.
//
//voyager:noalloc
func (n *Node) TransBasicIdx(dest int) int { return dest }

// TransExpressIdx returns the translation-table index routing an Express
// message to node dest on this machine.
//
//voyager:noalloc
func (n *Node) TransExpressIdx(dest int) int { return n.stride + dest }

// TransSvcIdx returns the translation-table index routing a service message
// to node dest's sP on this machine.
//
//voyager:noalloc
func (n *Node) TransSvcIdx(dest int) int { return 2*n.stride + dest }

// TransNotifyIdx returns the translation-table index routing a completion
// notification to node dest on this machine.
//
//voyager:noalloc
func (n *Node) TransNotifyIdx(dest int) int { return 3*n.stride + dest }

// TransStride returns this machine's translation-region stride.
//
//voyager:noalloc
func (n *Node) TransStride() int { return n.stride }
