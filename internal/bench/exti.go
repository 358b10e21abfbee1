package bench

import (
	"fmt"

	"startvoyager/internal/arctic"
	"startvoyager/internal/core"
	"startvoyager/internal/niu/ctrl"
	"startvoyager/internal/node"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// ExtIMultitasking is the paper's multitasking argument made concrete: a
// latency-critical job (express pings) shares the machine with a bulk job
// (Basic traffic) whose receiver is slow, so the bulk receive queue fills
// and — under the Hold policy — stalls its network lane. Without QoS the
// express messages ride the same Low lane and wait behind the stalled bulk
// backlog; with QoS (high-priority lane + better transmit arbitration
// class) they bypass it. This is precisely why the paper requires "at
// least two priority levels" of the network and multiple protected queues
// of the NIU.
func ExtIMultitasking() *stats.Table {
	t := &stats.Table{
		Title:   "Ext I — multitasking QoS: express ping latency under bulk load (us)",
		Columns: []string{"scenario", "p50", "p99", "bulk MB/s"},
	}
	for _, sc := range []struct {
		name string
		qos  bool
		bulk bool
	}{
		{"idle machine (baseline)", false, false},
		{"bulk load, no QoS", false, true},
		{"bulk load, QoS (priority class + high lane)", true, true},
	} {
		p50, p99, bw := multitaskRun(sc.qos, sc.bulk)
		t.AddRow(sc.name, fmtUs(p50), fmtUs(p99), fmt.Sprintf("%.1f", bw))
	}
	return t
}

func multitaskRun(qos, bulk bool) (p50, p99 sim.Time, bulkBW float64) {
	const pings = 40
	const bulkMsgs = 600
	m := core.NewMachine(2)
	defer m.Close()
	if qos {
		// Express traffic to node 1 rides the high-priority network lane...
		m.Nodes[0].Ctrl.WriteTransEntry(m.Nodes[0].TransExpressIdx(1), ctrl.TransEntry{
			PhysNode: 1, LogicalQ: node.LqExpress, Priority: arctic.High, Valid: true})
		// ...and the bulk queue is demoted to a worse arbitration class.
		m.Nodes[0].Ctrl.SetTxPriority(node.TxBasic, 5)
	}

	sendAt := make([]sim.Time, pings)
	recvAt := make([]sim.Time, pings)
	var bulkStart, bulkEnd sim.Time
	payload := make([]byte, 80)

	if bulk {
		m.Go(0, "bulk", func(p *sim.Proc, a *core.API) {
			bulkStart = p.Now()
			for i := 0; i < bulkMsgs; i++ {
				a.SendBasic(p, 1, payload)
			}
		})
	}
	m.Go(0, "ping", func(p *sim.Proc, a *core.API) {
		for i := 0; i < pings; i++ {
			sendAt[i] = p.Now()
			a.SendExpress(p, 1, []byte{byte(i), 0, 0, 0, 0})
			a.Compute(p, 10*sim.Microsecond) // one ping every 10 us
		}
	})
	gotBulk, gotPing := 0, 0
	m.Go(1, "sink", func(p *sim.Proc, a *core.API) {
		bulkNeed := 0
		if bulk {
			bulkNeed = bulkMsgs
		}
		lastBulkPoll := sim.Time(0)
		for gotPing < pings || gotBulk < bulkNeed {
			if _, pl, ok := a.TryRecvExpress(p); ok {
				recvAt[pl[0]] = p.Now()
				gotPing++
				continue
			}
			// The bulk job's receiver is slow: it accepts one Basic message
			// every 20 us while pings are in flight (afterwards it drains
			// freely). The receive queue fills and Hold backpressure stalls
			// the Low network lane.
			if gotPing < pings && p.Now()-lastBulkPoll < 20_000 {
				continue
			}
			if _, _, ok := a.TryRecvBasic(p); ok {
				lastBulkPoll = p.Now()
				gotBulk++
				if gotBulk == bulkNeed {
					bulkEnd = p.Now()
				}
			}
		}
	})
	m.Run()

	var s stats.Samples
	for i := 0; i < pings; i++ {
		if recvAt[i] > 0 {
			s.Add(float64(recvAt[i] - sendAt[i]))
		}
	}
	if bulk && bulkEnd > bulkStart {
		bulkBW = stats.MBps(bulkMsgs*len(payload), bulkEnd-bulkStart)
	}
	return sim.Time(s.Percentile(50)), sim.Time(s.Percentile(99)), bulkBW
}
