package core

import (
	"bytes"
	"fmt"
	"testing"

	"startvoyager/internal/cluster"
	"startvoyager/internal/fault"
	"startvoyager/internal/sim"
)

// Fault-plane scenarios: the reliable-delivery service (R-Basic) against the
// deterministic fault injector. Every test here uses a fixed fault seed, so
// outcomes — including "retransmits happened" and "corruption was seen" —
// are reproducible facts of the schedule, not flaky probabilities.

func faultedConfig(nodes int, plan *fault.Plan) cluster.Config {
	cfg := cluster.DefaultConfig(nodes)
	cfg.Faults = plan
	return cfg
}

func relStatTotals(m *Machine) (retrans, dups, fails uint64) {
	for _, r := range m.Rels {
		st := r.Stats()
		retrans += st.Retransmits
		dups += st.DupSuppressed
		fails += st.Failures
	}
	return retrans, dups, fails
}

// TestReliableExactlyOnceUnderLossAndCorruption: three senders push numbered,
// integrity-checked payloads at one receiver through a network that drops 5%
// and corrupts 5% of low-lane frames. Every message must arrive exactly once
// with its payload intact, the retransmit machinery must actually have fired,
// and at least one corrupted frame must have hit the CRC (proving the storm
// exercised the detection path, not just the drop path).
func TestReliableExactlyOnceUnderLossAndCorruption(t *testing.T) {
	plan := &fault.Plan{Seed: 1}
	plan.Lanes[fault.LaneLow] = fault.LaneProbs{Drop: 0.05, Corrupt: 0.05}
	m := NewMachineConfig(faultedConfig(4, plan))

	const perSender = 25
	const senders = 3
	pattern := func(src, seq, i int) byte { return byte(src*31 + seq*7 + i) }
	for s := 0; s < senders; s++ {
		s := s
		m.Go(s, "sender", func(p *sim.Proc, a *API) {
			for seq := 0; seq < perSender; seq++ {
				pl := make([]byte, 16)
				pl[0], pl[1] = byte(s), byte(seq)
				for i := 2; i < len(pl); i++ {
					pl[i] = pattern(s, seq, i)
				}
				if err := a.SendReliable(p, 3, pl); err != nil {
					t.Errorf("sender %d seq %d: %v", s, seq, err)
					return
				}
			}
		})
	}
	seen := make(map[[2]byte]int)
	m.Go(3, "receiver", func(p *sim.Proc, a *API) {
		for n := 0; n < senders*perSender; n++ {
			src, pl, err := a.RecvReliableTimeout(p, 20*sim.Millisecond)
			if err != nil {
				t.Errorf("receiver starved after %d messages: %v", n, err)
				return
			}
			if len(pl) != 16 || int(pl[0]) != src {
				t.Errorf("mangled delivery from %d: %v", src, pl)
				return
			}
			for i := 2; i < len(pl); i++ {
				if pl[i] != pattern(src, int(pl[1]), i) {
					t.Errorf("payload integrity failure from %d seq %d at byte %d", src, pl[1], i)
					return
				}
			}
			seen[[2]byte{pl[0], pl[1]}]++
		}
	})
	m.Run()

	if len(seen) != senders*perSender {
		t.Fatalf("received %d distinct messages, want %d", len(seen), senders*perSender)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("message %v delivered %d times", k, n)
		}
	}
	retrans, _, fails := relStatTotals(m)
	if retrans == 0 {
		t.Error("5% loss produced zero retransmits; the fault plane is not engaged")
	}
	if fails != 0 {
		t.Errorf("%d sends declared failed under recoverable loss", fails)
	}
	fst := m.Faults.Stats()
	if fst.InjectedDrops == 0 || fst.Corrupted == 0 {
		t.Errorf("fault counters flat under a drop+corrupt plan: %+v", fst)
	}
	garbage := uint64(0)
	for _, n := range m.Nodes {
		garbage += n.Ctrl.Stats().RxGarbage
	}
	if garbage == 0 {
		t.Error("no corrupted frame reached the CRC check; corruption path untested")
	}
}

// TestReliableDuplicateSuppression: a network that duplicates half of all
// low-lane packets must not deliver anything twice — the receiver-side
// sequence check suppresses the copies.
func TestReliableDuplicateSuppression(t *testing.T) {
	plan := &fault.Plan{Seed: 99}
	plan.Lanes[fault.LaneLow] = fault.LaneProbs{Duplicate: 0.5}
	m := NewMachineConfig(faultedConfig(2, plan))

	const msgs = 20
	m.Go(0, "sender", func(p *sim.Proc, a *API) {
		for i := 0; i < msgs; i++ {
			if err := a.SendReliable(p, 1, []byte{byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	})
	var got []byte
	m.Go(1, "receiver", func(p *sim.Proc, a *API) {
		for len(got) < msgs {
			_, pl, err := a.RecvReliableTimeout(p, 10*sim.Millisecond)
			if err != nil {
				t.Errorf("receiver starved at %d: %v", len(got), err)
				return
			}
			got = append(got, pl[0])
		}
		// Nothing more may trickle in after the last expected message.
		if _, pl, err := a.RecvReliableTimeout(p, m.RelBound()); err == nil {
			t.Errorf("extra delivery after %d messages: %v", msgs, pl)
		}
	})
	m.Run()

	for i, b := range got {
		if int(b) != i {
			t.Fatalf("deliveries out of order or duplicated: %v", got)
		}
	}
	_, dups, _ := relStatTotals(m)
	if dups == 0 {
		t.Error("50% duplication produced zero suppressed duplicates")
	}
	if m.Faults.Stats().Duplicated == 0 {
		t.Error("injector recorded no duplications")
	}
}

// TestReliableTransferSpansOutageRecovers: the 0->1 link goes completely dark
// for 300us in the middle of a transfer. The retransmit ladder (30us RTO,
// doubling) must ride out the outage and complete every send with no failures.
func TestReliableTransferSpansOutageRecovers(t *testing.T) {
	plan := &fault.Plan{Seed: 1, Outages: []fault.Outage{
		{Src: 0, Dst: 1, From: 5 * sim.Microsecond, To: 300 * sim.Microsecond},
	}}
	m := NewMachineConfig(faultedConfig(2, plan))

	const msgs = 5
	m.Go(0, "sender", func(p *sim.Proc, a *API) {
		for i := 0; i < msgs; i++ {
			if err := a.SendReliable(p, 1, []byte{0xA0 + byte(i)}); err != nil {
				t.Errorf("send %d failed across outage: %v", i, err)
				return
			}
		}
	})
	var got []byte
	m.Go(1, "receiver", func(p *sim.Proc, a *API) {
		for len(got) < msgs {
			_, pl, err := a.RecvReliableTimeout(p, 10*sim.Millisecond)
			if err != nil {
				t.Errorf("receiver starved at %d: %v", len(got), err)
				return
			}
			got = append(got, pl[0])
		}
	})
	m.Run()

	if len(got) != msgs {
		t.Fatalf("delivered %d of %d across the outage", len(got), msgs)
	}
	retrans, _, fails := relStatTotals(m)
	if retrans == 0 {
		t.Error("outage produced zero retransmits; window did not interrupt the transfer")
	}
	if fails != 0 {
		t.Errorf("%d failures across a recoverable outage", fails)
	}
	if m.Faults.Stats().OutageDrops == 0 {
		t.Error("injector recorded no outage drops")
	}
}

// TestDmaDuringOutageDegradesGracefully: unreliable traffic gets no such
// rescue — a DMA whose transfer window sits entirely inside a link outage
// loses its data, and the consumer's bounded wait surfaces a typed timeout
// instead of hanging the simulation.
func TestDmaDuringOutageDegradesGracefully(t *testing.T) {
	plan := &fault.Plan{Seed: 1, Outages: []fault.Outage{
		{Src: 0, Dst: 1, From: 0, To: 50 * sim.Millisecond},
	}}
	m := NewMachineConfig(faultedConfig(2, plan))
	m.Go(0, "pusher", func(p *sim.Proc, a *API) {
		for i := 0; i < 256; i++ {
			a.Poke(1<<20+uint32(i), []byte{byte(i)})
		}
		a.DmaPush(p, 1, 1<<20, 2<<20, 256, 0xD1)
	})
	var err error
	done := false
	m.Go(1, "consumer", func(p *sim.Proc, a *API) {
		_, _, err = a.RecvNotifyTimeout(p, 2*sim.Millisecond)
		done = true
	})
	m.Eng.RunUntil(m.Eng.Now() + 10*sim.Millisecond)
	if !done {
		t.Fatal("consumer still blocked; bounded wait did not fire")
	}
	if !IsTimeout(err) {
		t.Fatalf("expected *TimeoutError from a DMA lost to the outage, got %v", err)
	}
}

// TestNodeDeathBoundedError: a peer dies mid-run. An in-flight-or-later
// reliable send must fail with *DeliveryError within the machine's stated
// bound, and subsequent sends to the dead peer fail fast (no second ladder).
func TestNodeDeathBoundedError(t *testing.T) {
	plan := &fault.Plan{Seed: 1, Deaths: []fault.NodeDeath{
		{Node: 1, At: 10 * sim.Microsecond},
	}}
	m := NewMachineConfig(faultedConfig(2, plan))
	bound := m.RelBound()
	if bound <= 0 {
		t.Fatal("machine reports no reliable-send bound")
	}

	var firstErr, secondErr error
	var firstTook, secondTook sim.Time
	m.Go(0, "sender", func(p *sim.Proc, a *API) {
		p.Delay(20 * sim.Microsecond) // peer is already dead
		start := p.Now()
		firstErr = a.SendReliable(p, 1, []byte{1})
		firstTook = p.Now() - start

		start = p.Now()
		secondErr = a.SendReliable(p, 1, []byte{2})
		secondTook = p.Now() - start
	})
	m.Run()

	for i, err := range []error{firstErr, secondErr} {
		if _, ok := err.(*DeliveryError); !ok {
			t.Fatalf("send %d to dead peer: got %v, want *DeliveryError", i+1, err)
		}
	}
	if firstTook > bound {
		t.Errorf("first failing send took %v, exceeding the stated bound %v", firstTook, bound)
	}
	// The service remembers the dead peer: no second retry ladder.
	if secondTook > bound/4 {
		t.Errorf("second send to a known-dead peer took %v; expected a fast failure", secondTook)
	}
	if _, _, fails := relStatTotals(m); fails == 0 {
		t.Error("no failures counted for sends to a dead peer")
	}
	if m.Faults.Stats().DeathDrops == 0 {
		t.Error("injector recorded no death drops")
	}
}

// faultedExport runs a fixed reliable workload under a lossy plan with the
// given fault seed and renders the Perfetto trace and metrics dump to bytes.
func faultedExport(t *testing.T, seed uint64) ([]byte, []byte) {
	t.Helper()
	plan := &fault.Plan{Seed: seed}
	for i := range plan.Lanes {
		plan.Lanes[i] = fault.LaneProbs{Drop: 0.05, Corrupt: 0.02, Duplicate: 0.05,
			DelayProb: 0.2, DelayMax: 2 * sim.Microsecond}
	}
	m := NewMachineConfig(faultedConfig(4, plan))
	tbuf := m.Trace(1 << 18)

	for s := 0; s < 3; s++ {
		s := s
		m.Go(s, "sender", func(p *sim.Proc, a *API) {
			for i := 0; i < 10; i++ {
				if err := a.SendReliable(p, 3, []byte{byte(s), byte(i)}); err != nil {
					t.Errorf("seed %d sender %d: %v", seed, s, err)
					return
				}
			}
		})
	}
	m.Go(3, "receiver", func(p *sim.Proc, a *API) {
		for n := 0; n < 30; n++ {
			if _, _, err := a.RecvReliableTimeout(p, 20*sim.Millisecond); err != nil {
				t.Errorf("seed %d receiver: %v", seed, err)
				return
			}
		}
	})
	m.Run()

	var traceOut, metricsOut bytes.Buffer
	if err := tbuf.WritePerfetto(&traceOut); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}
	if err := m.Metrics().WriteJSON(&metricsOut, m.Eng.Now()); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return traceOut.Bytes(), metricsOut.Bytes()
}

// TestFaultedRunDeterministic: the determinism contract extends through the
// fault plane. Two runs with the same fault seed are byte-identical in both
// exports; changing only the fault seed changes the trace (so the comparison
// has teeth).
func TestFaultedRunDeterministic(t *testing.T) {
	trace1, metrics1 := faultedExport(t, 42)
	trace2, metrics2 := faultedExport(t, 42)
	if !bytes.Equal(trace1, trace2) {
		t.Error("Perfetto traces differ between same-fault-seed runs")
	}
	if !bytes.Equal(metrics1, metrics2) {
		t.Error("metrics dumps differ between same-fault-seed runs")
	}
	trace3, _ := faultedExport(t, 43)
	if bytes.Equal(trace1, trace3) {
		t.Error("Perfetto trace identical across different fault seeds")
	}
}

// TestReliableConcurrentSenders: several procs on one node issue reliable
// sends concurrently; the shared status queue must route each completion to
// its waiter (the stash path) without loss or cross-talk.
func TestReliableConcurrentSenders(t *testing.T) {
	plan := &fault.Plan{Seed: 7}
	plan.Lanes[fault.LaneLow] = fault.LaneProbs{Drop: 0.05}
	m := NewMachineConfig(faultedConfig(2, plan))

	const procs = 4
	const each = 5
	errs := make([]error, procs)
	for w := 0; w < procs; w++ {
		w := w
		m.Go(0, fmt.Sprintf("w%d", w), func(p *sim.Proc, a *API) {
			for i := 0; i < each; i++ {
				if err := a.SendReliable(p, 1, []byte{byte(w), byte(i)}); err != nil {
					errs[w] = err
					return
				}
			}
		})
	}
	seen := make(map[[2]byte]int)
	m.Go(1, "receiver", func(p *sim.Proc, a *API) {
		for n := 0; n < procs*each; n++ {
			_, pl, err := a.RecvReliableTimeout(p, 10*sim.Millisecond)
			if err != nil {
				t.Errorf("receiver starved at %d: %v", n, err)
				return
			}
			seen[[2]byte{pl[0], pl[1]}]++
		}
	})
	m.Run()

	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
	if len(seen) != procs*each {
		t.Fatalf("received %d distinct messages, want %d", len(seen), procs*each)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("message %v delivered %d times", k, n)
		}
	}
}
