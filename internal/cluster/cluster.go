// Package cluster assembles a complete StarT-Voyager machine: N nodes
// connected by an Arctic fat tree, with the default queue layout,
// translation tables, and firmware services installed and started.
package cluster

import (
	"fmt"

	"startvoyager/internal/arctic"
	"startvoyager/internal/bus"
	"startvoyager/internal/fault"
	"startvoyager/internal/firmware"
	"startvoyager/internal/node"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// Config holds machine-level construction parameters. New uses them as
// given, so a zero field means zero; start from DefaultConfig.
type Config struct {
	Nodes int
	Node  node.Config
	Net   arctic.Config

	// DirectNet replaces the fat tree with an ideal fabric of fixed
	// DirectNetLatency (ablation baseline).
	DirectNet bool

	// ScomaSize enables the S-COMA shared window of this many bytes
	// (page-interleaved across nodes). Must be a multiple of the page size
	// times the node count.
	ScomaSize uint32
	// NumaSegment enables the NUMA window with this many bytes homed on
	// each node.
	NumaSegment uint32
	// ScomaMigratory enables the migratory-sharing protocol optimization.
	ScomaMigratory bool

	// ReflectSize enables the reflective-memory window of this many bytes
	// (mode and export map are configured per-node via the aBIU).
	ReflectSize uint32

	// Faults, when non-nil, attaches a deterministic fault-injection plan to
	// the fabric (see internal/fault).
	Faults *fault.Plan

	// DisableScomaProtocol keeps the S-COMA window and clsSRAM hardware but
	// installs no directory firmware — experiments that use the cache-line
	// state check for arrival gating (block transfer approaches 4 and 5)
	// register their own capture handling.
	DisableScomaProtocol bool

	// Profiler, when non-nil, attaches a simulated-time profiler (see
	// internal/prof) to the engine before any Proc spawns, so the firmware
	// service loops started during construction are accounted from time
	// zero. Profiling is observation-only: it cannot change any simulated
	// outcome.
	Profiler sim.ProcProfiler
}

// DefaultConfig returns a ready-to-run machine configuration holding every
// parameter the machine runs with.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:       nodes,
		Node:        node.DefaultConfig(),
		Net:         arctic.DefaultConfig(),
		ScomaSize:   1 << 20,
		NumaSegment: 1 << 20,
	}
}

// Cluster is an assembled machine.
type Cluster struct {
	Eng    *sim.Engine
	Fabric arctic.Fabric
	Nodes  []*node.Node
	Cfg    Config
	// Reg is the machine's metrics registry: every component registers its
	// counters at construction under node<i>/<component> (fabric under net/),
	// so Reg.WriteJSON dumps the whole machine's state at any time.
	Reg *stats.Registry

	// Faults is the fault injector executing Cfg.Faults (nil when fault-free).
	Faults *fault.Injector

	Scomas    []*firmware.Scoma
	Numas     []*firmware.Numa
	Dmas      []*firmware.Dma
	Reflects  []*firmware.Reflect
	MissRings []*firmware.MissRing
	Rels      []*firmware.Rel
}

// Fixed per-node DRAM layout and the ideal fabric's latency. The overflow
// ring above them sits at firmware.MissRingBase (12 MB).
const (
	// NumaLocalBase is the home-local DRAM address backing NUMA segments.
	NumaLocalBase = 4 << 20
	// ScomaBackingBase is the home-local DRAM address of S-COMA backing
	// copies.
	ScomaBackingBase = 8 << 20

	// DirectNetLatency is the DirectNet fabric's fixed latency.
	DirectNetLatency = 250 * sim.Nanosecond
)

// New builds and starts a machine.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic("cluster: need at least one node")
	}
	eng := sim.NewEngine()
	if cfg.Profiler != nil {
		eng.SetProfiler(cfg.Profiler)
	}
	var fabric arctic.Fabric
	if cfg.DirectNet {
		fabric = arctic.NewDirect(eng, cfg.Nodes, DirectNetLatency, cfg.Net.FlitTime)
	} else {
		fabric = arctic.NewFatTree(eng, cfg.Nodes, cfg.Net)
	}

	c := &Cluster{Eng: eng, Fabric: fabric, Cfg: cfg, Reg: stats.NewRegistry()}
	if rm, ok := fabric.(interface{ RegisterMetrics(*stats.Registry) }); ok {
		rm.RegisterMetrics(c.Reg.Child("net"))
	}
	if cfg.Faults != nil {
		c.Faults = fault.NewInjector(eng, *cfg.Faults)
		if sf, ok := fabric.(interface{ SetFaults(*fault.Injector) }); ok {
			sf.SetFaults(c.Faults)
		} else {
			panic("cluster: fabric does not support fault injection")
		}
		c.Faults.RegisterMetrics(c.Reg.Child("net").Child("fault"))
	}
	trans := node.TransImage(cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		n := node.New(eng, i, fabric, cfg.Node, cfg.Nodes, cfg.Net.FlitTime,
			cfg.ScomaSize, cfg.ReflectSize, trans)
		n.RegisterMetrics(c.Reg.Child(fmt.Sprintf("node%d", i)))
		c.Nodes = append(c.Nodes, n)
	}

	for _, n := range c.Nodes {
		if cfg.ScomaSize > 0 && !cfg.DisableScomaProtocol {
			c.Scomas = append(c.Scomas, firmware.NewScoma(n.FW, firmware.ScomaConfig{
				Window:      n.ScomaWindow(),
				BackingBase: ScomaBackingBase,
				NumNodes:    cfg.Nodes,
				Migratory:   cfg.ScomaMigratory,
			}))
		}
		if cfg.NumaSegment > 0 {
			c.Numas = append(c.Numas, firmware.NewNuma(n.FW, firmware.NumaConfig{
				Window:    bus.Range{Base: node.NumaBase, Size: cfg.NumaSegment * uint32(cfg.Nodes)},
				Segment:   cfg.NumaSegment,
				LocalBase: NumaLocalBase,
			}))
		}
		if cfg.ReflectSize > 0 {
			c.Reflects = append(c.Reflects, firmware.NewReflect(n.FW, n.Map.Reflect))
		}
		c.Dmas = append(c.Dmas, firmware.NewDma(n.FW, firmware.DmaConfig{
			StagingBase: n.DmaStagingOff(),
			StagingSize: node.DmaStagingLen,
		}))
		c.MissRings = append(c.MissRings, firmware.NewMissRing(n.FW))
		rel := firmware.NewRel(n.FW, cfg.Nodes)
		rel.RegisterMetrics(c.Reg.Child(fmt.Sprintf("node%d", n.ID)).Child("fault"))
		c.Rels = append(c.Rels, rel)
		n.FW.Start()
	}
	return c
}

// RelBound returns the worst-case sim time between submitting a reliable
// send and its success-or-failure status landing (see firmware.RelSendBound).
func (c *Cluster) RelBound() sim.Time { return firmware.RelSendBound() }

// Run drives the simulation until no events remain, then checks for
// deadlocked processes.
func (c *Cluster) Run() {
	c.Eng.Run()
}

// Close stops the machine's Proc coroutines (sim.Engine.Close), among them
// the firmware service loops that block forever, so the machine can be
// garbage collected. Read every result first: the machine cannot run again.
func (c *Cluster) Close() { c.Eng.Close() }

// FirmwareLoops returns the number of always-blocked firmware service procs
// (three per node), the expected live count for Engine.BudgetCheck.
func (c *Cluster) FirmwareLoops() int { return 3 * len(c.Nodes) }
