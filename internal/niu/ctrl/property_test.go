package ctrl

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"startvoyager/internal/niu/txrx"
	"startvoyager/internal/sim"
)

// drained runs at most n events of e, a livelock guard, and reports whether
// its event queue drained within them. CTRL spawns no Procs, so nothing is
// left parked.
func drained(e *sim.Engine, n int) bool {
	for ; n > 0 && e.Step(); n-- {
	}
	return e.Pending() == 0
}

// Property: for random interleavings of message composition, producer
// updates, and receive-consumer updates across multiple queues, every
// message is launched exactly once, in per-queue FIFO order, with intact
// content.
func TestQueueDisciplineProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(nil, 0)
		const nq = 3
		for q := 0; q < nq; q++ {
			r.stdTx(q, false)
		}
		type sent struct {
			q   int
			msg []byte
		}
		var plan []sent
		// Compose in bursts, interleaving producer updates at random times.
		prod := make([]uint32, nq)
		published := make([]uint32, nq)
		seq := 0
		for step := 0; step < 60; step++ {
			q := rng.Intn(nq)
			switch rng.Intn(3) {
			case 0, 1: // compose one message if space
				if prod[q]-r.c.TxConsumer(q) >= 8 || prod[q]-published[q] >= 4 {
					continue
				}
				msg := make([]byte, 1+rng.Intn(8))
				rng.Read(msg)
				msg[0] = byte(seq)
				seq++
				r.composeBasicAt(q, prod[q], uint16(q+1), SlotFlagRaw, msg)
				prod[q]++
				plan = append(plan, sent{q, msg})
			case 2: // publish composed messages
				if published[q] != prod[q] {
					published[q] = prod[q]
					p := published[q]
					qq := q
					r.eng.Schedule(0, func() { r.c.TxProducerUpdate(qq, p) })
					drained(r.eng, 10000)
				}
			}
		}
		for q := 0; q < nq; q++ {
			if published[q] != prod[q] {
				qq, p := q, prod[q]
				r.eng.Schedule(0, func() { r.c.TxProducerUpdate(qq, p) })
			}
		}
		if !drained(r.eng, 1_000_000) {
			return false
		}
		// Per-queue FIFO: the injected stream, filtered by destination
		// (dest == q+1 by construction), must equal the per-queue plan.
		got := map[int][][]byte{}
		for _, in := range r.net.injected {
			var f txrx.Frame
			if err := txrx.DecodeInto(&f, in.wire); err != nil {
				return false
			}
			got[in.dst] = append(got[in.dst], f.Payload)
		}
		want := map[int][][]byte{}
		for _, s := range plan {
			want[s.q+1] = append(want[s.q+1], s.msg)
		}
		for q := 0; q < nq; q++ {
			w, g := want[q+1], got[q+1]
			if len(w) != len(g) {
				return false
			}
			for i := range w {
				if !bytes.Equal(w[i], g[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: receive-side pointers never pass each other and slot contents
// round-trip for random message streams, including wraparound.
func TestRxPointerProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(nil, 1)
		r.stdRx(0, 7, Hold) // 4 entries: plenty of wraparound below
		var want [][]byte
		var gotten [][]byte
		consumed := uint32(0)
		for i := 0; i < 40; i++ {
			// Drain sometimes, fill sometimes.
			if rng.Intn(2) == 0 {
				for consumed < r.c.RxProducer(0) {
					_, _, pl := r.c.ReadRxSlot(0, consumed)
					gotten = append(gotten, pl)
					consumed++
					r.c.RxConsumerUpdate(0, consumed)
				}
			}
			msg := make([]byte, 1+rng.Intn(16))
			rng.Read(msg)
			w, _ := txrx.EncodeInto(&txrx.Frame{Kind: txrx.Data, LogicalQ: 7, Payload: msg}, nil)
			if r.c.TryReceive(w, sim.MsgTag{}) {
				want = append(want, msg)
			}
			if !drained(r.eng, 100000) {
				return false
			}
			if r.c.RxProducer(0)-consumed > 4 {
				return false // producer overran the ring
			}
		}
		for consumed < r.c.RxProducer(0) {
			_, _, pl := r.c.ReadRxSlot(0, consumed)
			gotten = append(gotten, pl)
			consumed++
			r.c.RxConsumerUpdate(0, consumed)
		}
		if len(want) != len(gotten) {
			return false
		}
		for i := range want {
			if !bytes.Equal(want[i], gotten[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: translation through random AND/OR masks always lands on the
// table entry computed by the reference expression.
func TestTranslationMaskProperty(t *testing.T) {
	f := func(virt, and, or uint16) bool {
		r := newRig(nil, 0)
		r.c.ConfigureTx(0, TxConfig{
			Buf: r.aS, Base: 0x1000, EntryBytes: 96, Entries: 8, ShadowBase: 0x100,
			Translate: true, AndMask: and, OrMask: or,
			AllowedDests: ^uint64(0), Enabled: true,
		})
		idx := int(virt&and|or) % r.c.transEntries
		r.c.WriteTransEntry(idx, TransEntry{PhysNode: 9, LogicalQ: uint16(idx), Valid: true})
		p := r.composeBasic(0, virt, 0, []byte("m"))
		r.c.TxProducerUpdate(0, p)
		if !drained(r.eng, 100000) {
			return false
		}
		if len(r.net.injected) != 1 || r.net.injected[0].dst != 9 {
			return false
		}
		var f txrx.Frame
		_ = txrx.DecodeInto(&f, r.net.injected[0].wire)
		return f.LogicalQ == uint16(idx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: slot offsets wrap correctly for any pointer value.
func TestSlotOffsetProperty(t *testing.T) {
	f := func(base uint32, ptr uint32) bool {
		base &= 0xFFFF
		off := SlotOffset(base, 96, 16, ptr)
		idx := (off - base) / 96
		return off >= base && idx == ptr%16 && (off-base)%96 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Sanity companion for the property tests: the rig helper must tolerate a
// nil *testing.T (they construct rigs inside quick.Check closures).
func TestRigNilT(t *testing.T) {
	r := newRig(nil, 0)
	if r.c.Node() != 0 {
		t.Fatal("rig broken")
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], 1)
}
