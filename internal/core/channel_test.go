package core

import (
	"bytes"
	"testing"

	"startvoyager/internal/sim"
	"startvoyager/internal/trace"
)

func TestChannelPingPong(t *testing.T) {
	m := NewMachine(2)
	chA := m.API(0).OpenChannel(1, []int{1})
	chB := m.API(1).OpenChannel(1, []int{0})
	done := false
	m.Go(0, "a", func(p *sim.Proc, _ *API) {
		if err := chA.Send(p, 1, []byte("over")); err != nil {
			t.Errorf("send: %v", err)
		}
		src, pl := chA.Recv(p)
		if src != 1 || !bytes.Equal(pl, []byte("back")) {
			t.Errorf("got %d %q", src, pl)
		}
		done = true
	})
	m.Go(1, "b", func(p *sim.Proc, _ *API) {
		src, pl := chB.Recv(p)
		if src != 0 || !bytes.Equal(pl, []byte("over")) {
			t.Errorf("got %d %q", src, pl)
		}
		if err := chB.Send(p, 0, []byte("back")); err != nil {
			t.Errorf("send back: %v", err)
		}
	})
	m.Run()
	if !done {
		t.Fatal("channel ping-pong incomplete")
	}
}

// TestChannelTraced: channel messages go through the library's slot path,
// so each one carries a trace tag from the aP store that creates it to the
// consume that retires it, and reconstructs as one complete causal chain.
func TestChannelTraced(t *testing.T) {
	const msgs = 5
	m := NewMachine(2)
	tb := m.Trace(1 << 14)
	tx := m.API(0).OpenChannel(1, []int{1})
	rx := m.API(1).OpenChannel(1, []int{0})
	m.Go(0, "src", func(p *sim.Proc, _ *API) {
		for k := range msgs {
			if err := tx.Send(p, 1, []byte{byte(k)}); err != nil {
				t.Errorf("send %d: %v", k, err)
			}
		}
	})
	m.Go(1, "sink", func(p *sim.Proc, _ *API) {
		for range msgs {
			rx.Recv(p)
		}
	})
	m.Run()
	pa := trace.AnalyzePaths(tb.Events())
	complete := 0
	for _, mp := range pa.Msgs {
		if mp.Complete && mp.SrcNode == 0 && mp.DstNode == 1 {
			complete++
		}
	}
	if len(pa.Msgs) != msgs || complete != msgs || pa.Orphans != 0 {
		t.Fatalf("%d chains (%d complete 0->1, %d orphans), want %d complete chains",
			len(pa.Msgs), complete, pa.Orphans, msgs)
	}
}

func TestChannelIsolation(t *testing.T) {
	// Two channels between the same pair of nodes must not cross-deliver.
	m := NewMachine(2)
	a1 := m.API(0).OpenChannel(1, []int{1})
	a2 := m.API(0).OpenChannel(2, []int{1})
	b1 := m.API(1).OpenChannel(1, []int{0})
	b2 := m.API(1).OpenChannel(2, []int{0})
	m.Go(0, "send", func(p *sim.Proc, _ *API) {
		a1.Send(p, 1, []byte("one"))
		a2.Send(p, 1, []byte("two"))
	})
	var got1, got2 []byte
	m.Go(1, "recv", func(p *sim.Proc, _ *API) {
		_, got2 = b2.Recv(p)
		_, got1 = b1.Recv(p)
	})
	m.Run()
	if string(got1) != "one" || string(got2) != "two" {
		t.Fatalf("cross-delivery: %q %q", got1, got2)
	}
}

func TestChannelProtectionViolation(t *testing.T) {
	m := NewMachine(4)
	ch := m.API(0).OpenChannel(1, []int{1}) // node 2 forbidden
	peer := m.API(1).OpenChannel(1, []int{0})
	var errGot error
	m.Go(0, "rogue", func(p *sim.Proc, _ *API) {
		errGot = ch.Send(p, 2, []byte("sneak"))
		// Channel must be shut down; a legitimate send now fails fast too.
		if err := ch.Send(p, 1, []byte("later")); err == nil {
			t.Error("send after shutdown succeeded")
		}
	})
	m.Run()
	if errGot != ErrChannelShutdown {
		t.Fatalf("violation error = %v", errGot)
	}
	if !ch.Shutdown() {
		t.Fatal("channel not shut down")
	}
	if m.Nodes[0].FW.Stats().ProtViols != 1 {
		t.Fatalf("firmware stats %+v", m.Nodes[0].FW.Stats())
	}
	// Other traffic (the default Basic path) is unaffected.
	okc := false
	m.Go(0, "good", func(p *sim.Proc, a *API) { a.SendBasic(p, 1, []byte("fine")) })
	m.Go(1, "peer", func(p *sim.Proc, a *API) {
		_, pl := a.RecvBasic(p)
		okc = bytes.Equal(pl, []byte("fine"))
	})
	m.Run()
	if !okc {
		t.Fatal("protection shutdown leaked into other queues")
	}
	_ = peer
}

func TestChannelReenable(t *testing.T) {
	m := NewMachine(2)
	ch := m.API(0).OpenChannel(1, []int{}) // nothing allowed: first send trips
	peer := m.API(1).OpenChannel(1, []int{0})
	var got []byte
	m.Go(0, "x", func(p *sim.Proc, a *API) {
		if err := ch.Send(p, 1, []byte("m")); err != ErrChannelShutdown {
			t.Errorf("want shutdown, got %v", err)
		}
		// The "OS" grants the permission and re-enables: the message held at
		// the head of the queue launches.
		a.Node().Ctrl.SetTxAllowedDests(2, 1<<1)
		ch.Reenable()
	})
	m.Go(1, "peer", func(p *sim.Proc, _ *API) {
		_, got = peer.Recv(p)
	})
	m.Run()
	if !bytes.Equal(got, []byte("m")) {
		t.Fatalf("after reenable got %q", got)
	}
	if ch.Shutdown() {
		t.Fatal("still shut down")
	}
}

func TestBadArgsPanics(t *testing.T) {
	m := NewMachine(2)
	cases := []struct {
		name string
		fn   func(p *sim.Proc, a *API)
	}{
		{"basic too big", func(p *sim.Proc, a *API) {
			a.SendBasic(p, 1, make([]byte, MaxBasicPayload+1))
		}},
		{"express too big", func(p *sim.Proc, a *API) {
			a.SendExpress(p, 1, make([]byte, MaxExpressPayload+1))
		}},
		{"tagon unaligned", func(p *sim.Proc, a *API) {
			a.SendTagOn(p, 1, []byte("x"), 0x8000, 17)
		}},
		{"tagon too long", func(p *sim.Proc, a *API) {
			a.SendTagOn(p, 1, []byte("x"), 0x8000, 96)
		}},
		{"bad virtual dest", func(p *sim.Proc, a *API) {
			a.MapVirtualDest(10, 1, 5)
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			m.Go(0, "bad", c.fn)
			m.Run()
		})
	}
}

func TestChannelQueueExhaustion(t *testing.T) {
	m := NewMachine(2)
	for i := 0; i < chanLastTxQ-chanFirstTxQ+1; i++ {
		m.API(0).OpenChannel(i, []int{1})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic when hardware queues run out")
		}
	}()
	m.API(0).OpenChannel(99, []int{1})
}

func TestMaxBasicPayloadExact(t *testing.T) {
	m := NewMachine(2)
	payload := make([]byte, MaxBasicPayload)
	for i := range payload {
		payload[i] = byte(i)
	}
	var got []byte
	m.Go(0, "s", func(p *sim.Proc, a *API) { a.SendBasic(p, 1, payload) })
	m.Go(1, "r", func(p *sim.Proc, a *API) { _, got = a.RecvBasic(p) })
	m.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("max payload corrupted")
	}
}

func TestComputeMetersAP(t *testing.T) {
	m := NewMachine(1)
	m.Go(0, "c", func(p *sim.Proc, a *API) { a.Compute(p, 12345) })
	m.Run()
	if got := m.Nodes[0].APMeter.BusyTime(); got != 12345 {
		t.Fatalf("aP busy %v, want 12345", got)
	}
}
