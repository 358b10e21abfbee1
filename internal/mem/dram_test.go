package mem

import (
	"bytes"
	"testing"

	"startvoyager/internal/bus"
	"startvoyager/internal/sim"
)

type master struct{}

func (m *master) SnoopBus(*bus.Transaction) bus.Snoop { return bus.Snoop{} }

func TestDRAMReadWrite(t *testing.T) {
	eng := sim.NewEngine()
	b := bus.New(eng, "bus", bus.DefaultConfig())
	d := New(bus.Range{Base: 0, Size: 1 << 16}, 60)
	m := &master{}
	b.Attach(d)
	b.Attach(m)

	want := []byte{0xde, 0xad, 0xbe, 0xef}
	wr := make([]byte, bus.LineSize)
	copy(wr, want)
	b.Issue(&bus.Transaction{Kind: bus.WriteLine, Addr: 96, Data: wr, Master: m}, func() {})
	eng.Run()

	got := make([]byte, bus.LineSize)
	b.Issue(&bus.Transaction{Kind: bus.ReadLine, Addr: 96, Data: got, Master: m}, func() {})
	eng.Run()
	if !bytes.Equal(got[:4], want) {
		t.Fatalf("got %x", got[:4])
	}
	r, w := d.Accesses()
	if r != 1 || w != 1 {
		t.Fatalf("accesses = %d/%d", r, w)
	}
}

// TestDRAMClaimZeroAllocs: a DRAM-claimed line read or write allocates
// nothing. The claim stages its offset for a prebound serve; it builds no
// closure per snoop.
func TestDRAMClaimZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	b := bus.New(eng, "bus", bus.DefaultConfig())
	d := New(bus.Range{Base: 0, Size: 1 << 16}, 60)
	m := &master{}
	b.Attach(d)
	b.Attach(m)
	for _, kind := range []bus.Kind{bus.ReadLine, bus.WriteLine} {
		tx := &bus.Transaction{Kind: kind, Addr: 96, Data: make([]byte, bus.LineSize), Master: m}
		allocs := testing.AllocsPerRun(100, func() {
			b.Issue(tx, func() {})
			eng.Run()
		})
		if allocs != 0 {
			t.Errorf("DRAM-claimed %v allocates %v per transaction, want 0", kind, allocs)
		}
	}
}

func TestDRAMIgnoresOutOfRangeAndKill(t *testing.T) {
	d := New(bus.Range{Base: 0x1000, Size: 0x1000}, 60)
	if s := d.SnoopBus(&bus.Transaction{Kind: bus.ReadLine, Addr: 0}); s.Action != bus.OK {
		t.Fatal("claimed out-of-range address")
	}
	if s := d.SnoopBus(&bus.Transaction{Kind: bus.Kill, Addr: 0x1000}); s.Action != bus.OK {
		t.Fatal("claimed a Kill")
	}
}

func TestPeekPoke(t *testing.T) {
	d := New(bus.Range{Base: 0x8000, Size: 0x1000}, 60)
	d.Poke(0x8100, []byte{1, 2, 3})
	got := make([]byte, 3)
	d.Peek(0x8100, got)
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("got %v", got)
	}
}

func TestPeekOutOfRangePanics(t *testing.T) {
	d := New(bus.Range{Base: 0, Size: 64}, 60)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	d.Peek(60, make([]byte, 8)) // spills past the end
}

// TestZeroWriteMaterializesNothing: zeros written where nothing was written
// before, by the backdoor or by a bus line write, allocate no page and no
// sub-page, and still read back as zeros.
func TestZeroWriteMaterializesNothing(t *testing.T) {
	d := New(bus.Range{Base: 0, Size: 4 * pageSize}, 60)
	d.Poke(pageSize-100, make([]byte, 3*subSize)) // straddles a page boundary
	tx := &bus.Transaction{Kind: bus.WriteLine, Addr: 2 * pageSize, Data: make([]byte, bus.LineSize)}
	d.SnoopBus(tx).Serve(tx)
	for i, pg := range d.pages {
		if pg != nil {
			t.Fatalf("page %d materialized by zero writes", i)
		}
	}
	got := pattern(3*subSize, 1)
	d.Peek(pageSize-100, got)
	if !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatal("zero-written bytes do not read as zeros")
	}
}

// TestZeroWriteClearsData: zeros written over stored data replace it, in a
// sub-page that already exists and across into one that does not.
func TestZeroWriteClearsData(t *testing.T) {
	d := New(bus.Range{Base: 0, Size: pageSize}, 60)
	d.Poke(subSize-64, pattern(64, 1)) // the tail of sub-page 0 only
	d.Poke(subSize-32, make([]byte, 64))
	got := make([]byte, 128)
	d.Peek(subSize-64, got)
	want := append(pattern(32, 1), make([]byte, 96)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("got %x, want %x", got, want)
	}
	if d.pages[0][1] != nil {
		t.Error("the zero tail materialized sub-page 1")
	}
}
