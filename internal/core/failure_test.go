package core

import (
	"testing"

	"startvoyager/internal/niu/ctrl"
	"startvoyager/internal/node"
	"startvoyager/internal/sim"
)

// Failure injection: the paper's Hold policy "can lead to deadlocking the
// network". These tests provoke the documented failure modes and check the
// system degrades the way the design says it should.

func TestHoldBackpressureStallsSender(t *testing.T) {
	// A receiver that never drains: the rx queue fills, Hold stalls the
	// network lane, the sender's tx queue fills, and the sender blocks in
	// SendBasic polling for space. Nothing is lost, nothing crashes.
	m := NewMachine(2)
	sent := 0
	m.Go(0, "flooder", func(p *sim.Proc, a *API) {
		for i := 0; i < 100; i++ {
			a.SendBasic(p, 1, []byte{byte(i)})
			sent++
		}
	})
	// Bounded run: the flood wedges, time keeps advancing on retries.
	m.Eng.RunUntil(m.Eng.Now() + 3*sim.Millisecond)
	if sent >= 100 {
		t.Fatalf("sender finished (%d) despite a dead receiver", sent)
	}
	st := m.Nodes[1].Ctrl.Stats()
	if st.RxHolds == 0 {
		t.Fatal("no Hold refusals recorded")
	}
	if st.RxDrops != 0 {
		t.Fatalf("%d messages dropped under Hold policy", st.RxDrops)
	}
	// Recovery: a late receiver drains everything; the sender completes.
	got := 0
	m.Go(1, "late", func(p *sim.Proc, a *API) {
		for got < 100 {
			if _, _, ok := a.TryRecvBasic(p); ok {
				got++
			}
		}
	})
	m.Run()
	if sent != 100 || got != 100 {
		t.Fatalf("after recovery: sent=%d got=%d", sent, got)
	}
}

func TestHighLaneSurvivesWedgedLowLane(t *testing.T) {
	// With the Basic flood wedged (receiver dead to Basic), express
	// messages on the high lane must still get through — the network's
	// deadlock-avoidance property end to end.
	m := NewMachine(2)
	// Route this machine's express traffic on the high lane.
	m.Nodes[0].Ctrl.WriteTransEntry(m.Nodes[0].TransExpressIdx(1), func() ctrl.TransEntry {
		e := ctrl.TransEntry{PhysNode: 1, LogicalQ: node.LqExpress, Valid: true}
		e.Priority = 0 // arctic.High
		return e
	}())
	m.Go(0, "flood", func(p *sim.Proc, a *API) {
		for i := 0; i < 60; i++ {
			a.SendBasic(p, 1, []byte{1})
		}
	})
	expressGot := 0
	m.Go(0, "express", func(p *sim.Proc, a *API) {
		p.Delay(200_000) // let the low lane wedge thoroughly
		for i := 0; i < 5; i++ {
			a.SendExpress(p, 1, []byte{byte(i), 0, 0, 0, 0})
			a.Compute(p, 5_000)
		}
	})
	m.Go(1, "exprecv", func(p *sim.Proc, a *API) {
		deadline := sim.Time(3 * sim.Millisecond)
		for expressGot < 5 && p.Now() < deadline {
			if _, _, ok := a.TryRecvExpress(p); ok {
				expressGot++
			}
		}
	})
	m.Eng.RunUntil(m.Eng.Now() + 4*sim.Millisecond)
	if expressGot != 5 {
		t.Fatalf("only %d of 5 express messages bypassed the wedged low lane", expressGot)
	}
}

func TestGarbageFrameCountedDrop(t *testing.T) {
	// A corrupted packet is swallowed and counted, not panicked on: a noisy
	// link must not crash the receiver. TryReceive returns true (the frame is
	// consumed, freeing the network lane) and the rx_garbage counter ticks.
	m := NewMachine(2)
	if !m.Nodes[1].Ctrl.TryReceive([]byte{0xFF, 0xFF, 0xFF}, sim.MsgTag{}) {
		t.Fatal("garbage frame refused instead of counted-and-dropped")
	}
	if got := m.Nodes[1].Ctrl.Stats().RxGarbage; got != 1 {
		t.Fatalf("RxGarbage = %d, want 1", got)
	}
	// The machine still works afterwards.
	var pl []byte
	m.Go(0, "src", func(p *sim.Proc, a *API) { a.SendBasic(p, 1, []byte{7}) })
	m.Go(1, "dst", func(p *sim.Proc, a *API) { _, pl = a.RecvBasic(p) })
	m.Run()
	if len(pl) != 1 || pl[0] != 7 {
		t.Fatalf("delivery after garbage: %v", pl)
	}
}

func TestDropPolicyLosesExcessOnly(t *testing.T) {
	// Reconfigure the Basic rx queue to Drop and flood it: exactly the
	// overflow is lost, the rest is intact and in order.
	m := NewMachine(2)
	cfg := m.Nodes[1].Ctrl.RxQueueConfig(node.RxBasic)
	cfg.Full = ctrl.Drop
	m.Nodes[1].Ctrl.ConfigureRx(node.RxBasic, cfg)
	m.Go(0, "flood", func(p *sim.Proc, a *API) {
		for i := 0; i < 40; i++ {
			a.SendBasic(p, 1, []byte{byte(i)})
		}
	})
	m.Run()
	st := m.Nodes[1].Ctrl.Stats()
	if st.RxDrops == 0 {
		t.Fatal("no drops under Drop policy flood")
	}
	var got []byte
	m.Go(1, "drain", func(p *sim.Proc, a *API) {
		for {
			_, pl, ok := a.TryRecvBasic(p)
			if !ok {
				return
			}
			got = append(got, pl[0])
		}
	})
	m.Run()
	if len(got) == 0 || len(got) >= 40 {
		t.Fatalf("drained %d of 40", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("surviving messages out of order: %v", got)
		}
	}
}

func TestMutualWedgeIsVisible(t *testing.T) {
	// Two nodes flood each other and neither drains: both block. The
	// harness makes the deadlock observable rather than hanging: time
	// advances on retries, progress does not.
	m := NewMachine(2)
	sent := [2]int{}
	for i := 0; i < 2; i++ {
		i := i
		m.Go(i, "flood", func(p *sim.Proc, a *API) {
			for k := 0; k < 200; k++ {
				a.SendBasic(p, 1-i, []byte{byte(k)})
				sent[i]++
			}
		})
	}
	m.Eng.RunUntil(m.Eng.Now() + 2*sim.Millisecond)
	before := sent
	m.Eng.RunUntil(m.Eng.Now() + 2*sim.Millisecond)
	if sent != before {
		t.Fatalf("progress after wedge: %v -> %v", before, sent)
	}
	if sent[0] >= 200 || sent[1] >= 200 {
		t.Fatal("flood completed without receivers")
	}
}
