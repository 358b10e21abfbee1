package cluster

import (
	"testing"

	"startvoyager/internal/sim"
)

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
