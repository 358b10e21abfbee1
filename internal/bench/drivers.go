package bench

import (
	"fmt"
	"slices"
	"strings"

	"startvoyager/internal/blockxfer"
	"startvoyager/internal/core"
	"startvoyager/internal/fault"
	"startvoyager/internal/sim"
)

// CanonicalNodes is the machine size Canonical drives.
const CanonicalNodes = 4

// Canonical spawns the canonical observability workload on m, a
// CanonicalNodes-node machine: every major mechanism at once — a hardware
// block transfer (approach 3) between nodes 0 and 1, and Basic/Express/DMA
// message traffic plus cached and S-COMA memory operations between nodes 2
// and 3. Run with the trace ring attached, every model package emits at
// least one span, instant, counter, or metric; the coverage test in
// observe_test.go holds the layer to that.
func Canonical(m *core.Machine) {
	xfer := blockxfer.NewTransfer(blockxfer.A3, m, 4<<10)
	m.Go(0, "xfer-src", func(p *sim.Proc, api *core.API) {
		xfer.Send(p, api)
	})
	m.Go(1, "xfer-dst", func(p *sim.Proc, api *core.API) {
		xfer.Receive(p, api)
		xfer.Consume(p, api)
	})

	const msgs = 8
	m.Go(2, "mixed-src", func(p *sim.Proc, api *core.API) {
		payload := make([]byte, 32)
		for k := 0; k < msgs; k++ {
			api.SendBasic(p, 3, payload)
		}
		api.SendExpress(p, 3, []byte{1, 2})
		api.DmaPush(p, 3, 0x10_0000, 0x20_0000, 256, 7)
		var line [64]byte
		api.MemStore(p, 0x30_0000, line[:])
		api.MemLoad(p, 0x30_0000, line[:])
		api.ScomaLoad(p, 0, line[:32]) // remote page: capture + directory firmware
	})
	m.Go(3, "mixed-dst", func(p *sim.Proc, api *core.API) {
		for got := 0; got < msgs; {
			if _, _, ok := api.TryRecvBasic(p); ok {
				got++
			}
		}
		api.RecvExpress(p)
		api.RecvNotify(p)
	})
}

// AllToOne is the one all-to-one traffic driver, shared by voyager-run (and
// with it the critical-path report and the FAULTS/ goldens), the headline
// probe and the node/basic-msg microbenchmark: every node but 0 sends Count
// messages (DMA: transfers) of Size payload bytes to node 0 over Mech, one
// of PathMechs.
type AllToOne struct {
	Mech        string
	Count, Size int
}

// Delivery is an AllToOne run's outcome, final once the machine's Run
// returns.
type Delivery struct {
	Received int
	Failed   int // reliable sends that returned an error
}

// RecoveryStats is a run's recovery work, summed over the machine.
type RecoveryStats struct {
	Retransmits   uint64 // reliable-layer retransmissions
	DupSuppressed uint64 // duplicate reliable messages discarded
	RxGarbage     uint64 // arrivals CTRL could not decode and discarded
}

// Recovery totals m's recovery work once m has run.
func Recovery(m *core.Machine) RecoveryStats {
	var r RecoveryStats
	for _, rel := range m.Rels {
		st := rel.Stats()
		r.Retransmits += st.Retransmits
		r.DupSuppressed += st.DupSuppressed
	}
	for _, n := range m.Nodes {
		r.RxGarbage += n.Ctrl.Stats().RxGarbage
	}
	return r
}

// Check validates the driver's inputs against the fault plan the machine
// will run under (nil = fault-free); each error names its CLI flag. Only
// reliable delivery recovers lost packets, so any other mechanism under a
// plan that can lose one would leave the sink waiting forever.
func (d AllToOne) Check(plan *fault.Plan) error {
	switch {
	case !slices.Contains(PathMechs, d.Mech):
		return fmt.Errorf("-mech: unknown mechanism %q (want %s)", d.Mech, strings.Join(PathMechs, ", "))
	case d.Count < 0:
		return fmt.Errorf("-count: must be >= 0, got %d", d.Count)
	case d.Size < 0:
		return fmt.Errorf("-size: must be >= 0, got %d", d.Size)
	case d.Mech != "reliable" && lossy(plan):
		return fmt.Errorf("-faults: the plan can lose packets and %s does not recover them (use -mech reliable)", d.Mech)
	}
	return nil
}

// lossy reports whether plan can lose a packet: a drop or corruption rate
// on either lane, a link outage, or a node death. Duplicates and delays
// only reorder or repeat traffic.
func lossy(plan *fault.Plan) bool {
	if plan == nil {
		return false
	}
	for _, lp := range plan.Lanes {
		if lp.Drop > 0 || lp.Corrupt > 0 {
			return true
		}
	}
	return len(plan.Outages) > 0 || len(plan.Deaths) > 0
}

// Spawn starts the sink on node 0 and a sender on every other node of m.
// It panics on inputs Check rejects under m's fault plan.
func (d AllToOne) Spawn(m *core.Machine) *Delivery {
	if err := d.Check(m.Cfg.Faults); err != nil {
		panic(err)
	}
	out := &Delivery{}
	senders := len(m.Nodes) - 1
	total := senders * d.Count
	sendersDone := 0
	m.Go(0, "sink", func(p *sim.Proc, a *core.API) {
		if d.Mech == "reliable" {
			// Senders may legitimately fail under a fault plan (dead peers),
			// so the sink drains with a bounded wait and leaves once every
			// sender has finished and the pipeline has gone quiet.
			for {
				if _, _, err := a.RecvReliableTimeout(p, m.RelBound()); err != nil {
					if sendersDone == senders {
						return
					}
					continue
				}
				out.Received++
			}
		}
		for out.Received < total {
			switch d.Mech {
			case "basic", "tagon":
				if _, _, ok := a.TryRecvBasic(p); ok {
					out.Received++
				}
			case "express":
				if _, _, ok := a.TryRecvExpress(p); ok {
					out.Received++
				}
			case "dma":
				a.RecvNotify(p)
				out.Received++
			}
		}
	})
	for i := 1; i <= senders; i++ {
		// One payload buffer per sender, sized for the larger of the Basic
		// and reliable limits; the sends copy it out.
		payload := make([]byte, min(d.Size, max(core.MaxBasicPayload, core.MaxReliablePayload)))
		m.Go(i, "src", func(p *sim.Proc, a *core.API) {
			for k := 0; k < d.Count; k++ {
				switch d.Mech {
				case "basic":
					a.SendBasic(p, 0, payload[:min(d.Size, core.MaxBasicPayload)])
				case "tagon":
					// Inline byte + one 16-byte aSRAM tag appended by the NIU.
					a.SendTagOn(p, 0, []byte{byte(k)}, 0x400, 16)
				case "express":
					a.SendExpress(p, 0, []byte{byte(k)})
					a.Compute(p, 2*sim.Microsecond) // pace: express drops on overflow
				case "reliable":
					if err := a.SendReliable(p, 0, payload[:min(d.Size, core.MaxReliablePayload)]); err != nil {
						out.Failed++
					}
				case "dma":
					n := d.Size &^ 31
					if n == 0 {
						n = 32
					}
					a.DmaPush(p, 0, 0x10_0000, uint32(0x20_0000+i*0x1_0000), n, uint32(k))
				}
			}
			sendersDone++
		})
	}
	return out
}
