package trace

import (
	"strings"
	"testing"

	"startvoyager/internal/sim"
)

func TestObserverCapture(t *testing.T) {
	eng := sim.NewEngine()
	b := Attach(eng, 16)
	eng.Schedule(10, func() {
		s := eng.BeginSpan(0, "bus", "ReadLine", sim.Hex("addr", 0x100))
		eng.Schedule(5, func() { s.End() })
	})
	eng.Schedule(20, func() { eng.Instant(1, "cache", "miss", sim.Int("set", 3)) })
	eng.Schedule(30, func() { eng.Sample(0, "ctrl", "txq0", 2) })
	eng.Run()

	evs := b.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events: %v", len(evs), evs)
	}
	if evs[0].Kind != SpanBegin || evs[0].At != 10 || evs[0].Name != "ReadLine" || evs[0].Span == 0 {
		t.Fatalf("begin event %v", evs[0])
	}
	if evs[1].Kind != SpanEnd || evs[1].At != 15 || evs[1].Span != evs[0].Span {
		t.Fatalf("end event %v", evs[1])
	}
	if evs[2].Kind != Instant || evs[2].Node != 1 || evs[2].Component != "cache" {
		t.Fatalf("instant event %v", evs[2])
	}
	if evs[3].Kind != Counter || evs[3].Value != 2 || evs[3].Name != "txq0" {
		t.Fatalf("counter event %v", evs[3])
	}
	if got := evs[0].String(); !strings.Contains(got, "addr=0x100") || !strings.Contains(got, "bus") {
		t.Fatalf("string %q", got)
	}
	if got := evs[3].String(); !strings.Contains(got, "=2") {
		t.Fatalf("counter string %q", got)
	}
}

func TestSpanInertWithoutObserver(t *testing.T) {
	eng := sim.NewEngine()
	s := eng.BeginSpan(0, "bus", "ReadLine")
	if s.Active() {
		t.Fatal("span active with no observer")
	}
	s.End() // must not panic
	eng.Instant(0, "x", "e")
	eng.Sample(0, "x", "q", 1)
}

func TestRingDropsOldest(t *testing.T) {
	eng := sim.NewEngine()
	b := Attach(eng, 3)
	for i := 0; i < 5; i++ {
		eng.Instant(0, "x", "e", sim.Int("i", i))
	}
	evs := b.Events()
	s := b.Stats()
	if len(evs) != 3 || s.Dropped != 2 || s.Retained != 3 || s.Captured != 5 {
		t.Fatalf("len=%d stats=%+v", len(evs), s)
	}
	if evs[0].Fields[0].Value() != "2" || evs[2].Fields[0].Value() != "4" {
		t.Fatalf("ring order wrong: %v", evs)
	}
}

func TestDefaultCapacity(t *testing.T) {
	b := New(0)
	if b.cap != 4096 {
		t.Fatalf("cap = %d", b.cap)
	}
}
