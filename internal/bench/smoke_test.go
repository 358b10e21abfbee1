package bench

import "testing"

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
