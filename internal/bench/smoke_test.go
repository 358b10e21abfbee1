package bench

import (
	"fmt"
	"strconv"
	"testing"

	"startvoyager/internal/arctic"
	"startvoyager/internal/sim"
)

func TestMechanismsSmoke(t *testing.T) {
	for _, r := range MeasureMechanisms() {
		t.Logf("%-28s one-way=%v tput=%.1f", r.Name, r.OneWay, r.Throughput)
		if r.OneWay <= 0 {
			t.Fatalf("%s: bad latency", r.Name)
		}
	}
}

func TestExtDSmoke(t *testing.T) {
	tab := ExtDReflective()
	t.Logf("\n%s", tab)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
}

func TestExtESmoke(t *testing.T) {
	tab := ExtEQueueCaching()
	t.Logf("\n%s", tab)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
}

func TestExtFSmoke(t *testing.T) {
	tab := ExtFCollectives([]int{2, 4, 8})
	t.Logf("\n%s", tab)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
}

func TestExtGSmoke(t *testing.T) {
	tab := ExtGNetworkScaling(64 << 10)
	t.Logf("\n%s", tab)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	t.Logf("\n%s", ExtGTopology(64<<10))
}

func TestExtHSmoke(t *testing.T) {
	tab := ExtHFirmwareSpeed(64 << 10)
	t.Logf("\n%s", tab)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
}

func TestExtISmoke(t *testing.T) {
	tab := ExtIMultitasking()
	t.Logf("\n%s", tab)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
}

func TestQoSProtectsLatency(t *testing.T) {
	// The headline assertion behind Ext I: with the high lane and a better
	// arbitration class, the latency-critical job is isolated from a bulk
	// job whose stalled queue wedges the Low lane.
	_, p99NoQos, _ := multitaskRun(false, true)
	_, p99Qos, _ := multitaskRun(true, true)
	if p99Qos*100 >= p99NoQos {
		t.Fatalf("QoS p99 %v not at least 100x below no-QoS p99 %v", p99Qos, p99NoQos)
	}
}

func TestExtKSmoke(t *testing.T) {
	tab := ExtKProtocolVariants()
	t.Logf("\n%s", tab)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	tab2 := ExtKStencil(64, 6, 4)
	t.Logf("\n%s", tab2)
	if len(tab2.Rows) != 2 {
		t.Fatalf("rows %d", len(tab2.Rows))
	}
}

func TestExtLSmoke(t *testing.T) {
	tab := ExtLReliability(20, ExtLDrops)
	t.Logf("\n%s", tab)
	if len(tab.Rows) != 1+len(ExtLDrops) {
		t.Fatalf("rows %d", len(tab.Rows))
	}
}

// Ext M's unloaded latency is the store-and-forward sum at the default
// config, hops serializations of the packet plus a routing decision at every
// switch on the path, and its loaded fabric delivers every packet under
// either routing rule.
func TestExtMFabric(t *testing.T) {
	latency, load := ExtMFabric([]int{16, 64})
	t.Logf("\n%s\n%s", latency, load)
	cfg := arctic.DefaultConfig()
	flits := sim.Time(extMPacketBytes / arctic.FlitBytes)
	if len(latency.Rows) != 6 {
		t.Fatalf("latency rows %d, want 6", len(latency.Rows))
	}
	for _, row := range latency.Rows {
		hops, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatal(err)
		}
		want := sim.Time(hops)*flits*cfg.FlitTime + sim.Time(hops-1)*cfg.RouterLatency
		if row[3] != fmtUs(want) {
			t.Errorf("%s nodes, 0 -> %s at %d hops: latency %s us, want %s", row[0], row[1], hops, row[3], fmtUs(want))
		}
	}
	if len(load.Rows) != 4 {
		t.Fatalf("load rows %d, want 4", len(load.Rows))
	}
	for _, row := range load.Rows {
		if row[2] != fmt.Sprint(extMPackets) {
			t.Errorf("%s nodes, %s routing: delivered %s of %d packets", row[0], row[1], row[2], extMPackets)
		}
	}
}
