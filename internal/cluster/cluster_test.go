package cluster

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"startvoyager/internal/arctic"
	"startvoyager/internal/bus"
	"startvoyager/internal/cache"
	"startvoyager/internal/firmware"
	"startvoyager/internal/niu/biu"
	"startvoyager/internal/niu/ctrl"
	"startvoyager/internal/node"
	"startvoyager/internal/sim"
)

// TestDefaultConfigIsTheMachine: the machine config holds each component's
// own defaults, so a field scaled on it is the value the machine runs with.
func TestDefaultConfigIsTheMachine(t *testing.T) {
	cfg := DefaultConfig(4)
	if cfg.Node != node.DefaultConfig() {
		t.Errorf("Node = %+v, want node.DefaultConfig() = %+v", cfg.Node, node.DefaultConfig())
	}
	n := cfg.Node
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"Net", cfg.Net == arctic.DefaultConfig()},
		{"Node.Bus", n.Bus == bus.DefaultConfig()},
		{"Node.Cache", n.Cache == cache.DefaultConfig()},
		{"Node.Ctrl", n.Ctrl == ctrl.DefaultConfig()},
		{"Node.Biu", n.Biu == biu.DefaultConfig()},
		{"Node.Costs", n.Costs == firmware.DefaultCosts()},
	} {
		if !c.ok {
			t.Errorf("%s differs from its package's defaults", c.name)
		}
	}
}

// TestConfigHoldsOnlyKnobs is the census of Config's settable values, by
// path: every one is a knob a caller can vary on its own. Wiring (the node
// count, flit time and window sizes that node.New and ctrl.New also need)
// is passed as arguments, and wiring with one value in every machine is a
// constant. The walk enters every struct but bus.Range; a pointer or an
// interface (Faults, Profiler) is one value.
func TestConfigHoldsOnlyKnobs(t *testing.T) {
	var got []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			if f.Type.Kind() == reflect.Struct && f.Type != reflect.TypeOf(bus.Range{}) {
				walk(prefix+f.Name+".", f.Type)
				continue
			}
			got = append(got, prefix+f.Name)
		}
	}
	walk("", reflect.TypeOf(Config{}))
	want := []string{
		"Nodes",
		"Node.Bus.CycleTime", "Node.Bus.AddrCycles", "Node.Bus.RetryBackoff", "Node.Bus.MaxRetries",
		"Node.Cache.SizeBytes", "Node.Cache.Assoc", "Node.Cache.HitTime",
		"Node.Ctrl.TxUCycles", "Node.Ctrl.RxUCycles", "Node.Ctrl.StrictRx",
		"Node.Biu.SramLatency", "Node.Biu.RegLatency",
		"Node.Costs.Dispatch", "Node.Costs.Handler", "Node.Costs.PerByte", "Node.Costs.CmdIssue",
		"Node.DramLat",
		"Net.FlitTime", "Net.RouterLatency", "Net.LaneCapacity", "Net.Adaptive",
		"DirectNet", "ScomaSize", "NumaSegment", "ScomaMigratory", "ReflectSize",
		"Faults", "DisableScomaProtocol", "Profiler",
	}
	if !slices.Equal(got, want) {
		t.Errorf("Config has %d settable values, want %d:\n  got  %s\n  want %s",
			len(got), len(want), strings.Join(got, " "), strings.Join(want, " "))
	}
}

func TestNewDefaultCluster(t *testing.T) {
	c := New(DefaultConfig(4))
	if len(c.Nodes) != 4 || len(c.Scomas) != 4 || len(c.Numas) != 4 || len(c.Dmas) != 4 {
		t.Fatalf("assembly wrong: %d nodes, %d scoma, %d numa, %d dma",
			len(c.Nodes), len(c.Scomas), len(c.Numas), len(c.Dmas))
	}
	c.Run()
	// Only the firmware loops (3 per node) may be blocked at quiescence.
	if err := c.CheckQuiescent(c.FirmwareLoops()); err != nil {
		t.Fatal(err)
	}
}

func TestDisabledServices(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.ScomaSize = 0
	cfg.NumaSegment = 0
	c := New(cfg)
	if len(c.Scomas) != 0 || len(c.Numas) != 0 {
		t.Fatal("disabled services were installed")
	}
}

func TestDisableScomaProtocolKeepsWindow(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.DisableScomaProtocol = true
	c := New(cfg)
	if len(c.Scomas) != 0 {
		t.Fatal("protocol installed despite flag")
	}
	if c.Nodes[0].Map.Scoma.Size == 0 {
		t.Fatal("window missing")
	}
}

func TestDirectNetConfig(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.DirectNet = true
	c := New(cfg)
	if c.Fabric.NumNodes() != 2 {
		t.Fatal("fabric wrong")
	}
}

func TestRunFor(t *testing.T) {
	c := New(DefaultConfig(1))
	c.RunFor(1000)
	if c.Eng.Now() < 1000 {
		t.Fatalf("now = %v", c.Eng.Now())
	}
}

func TestZeroNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Config{Nodes: 0})
}

func TestQuiescentMismatchReported(t *testing.T) {
	c := New(DefaultConfig(1))
	c.Run()
	if err := c.CheckQuiescent(0); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	// Two identical clusters with identical stimulus must evolve
	// identically (event counts included).
	build := func() (*Cluster, *uint64) {
		c := New(DefaultConfig(2))
		n := new(uint64)
		c.Eng.Spawn("stim", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				p.Delay(100)
				*n += uint64(c.Eng.Executed())
			}
		})
		return c, n
	}
	c1, n1 := build()
	c1.Run()
	c2, n2 := build()
	c2.Run()
	if *n1 != *n2 || c1.Eng.Executed() != c2.Eng.Executed() {
		t.Fatalf("nondeterminism: %d/%d vs %d/%d", *n1, c1.Eng.Executed(), *n2, c2.Eng.Executed())
	}
}
