// Package workload provides synthetic traffic generators and a driver for
// system-workload-level studies — the paper closes by promising that
// "investigations will not be confined to single program simulations, but
// system workload level studies". Each generator produces a deterministic
// schedule of message sends per node; the driver runs the schedule on a
// machine and reports delivered throughput, latency percentiles, and
// resource occupancies.
package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"startvoyager/internal/core"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// Pattern names a traffic pattern.
type Pattern int

// Traffic patterns.
const (
	// Uniform: every message picks a uniformly random destination.
	Uniform Pattern = iota
	// Hotspot: a fraction of traffic converges on node 0, the rest uniform.
	Hotspot
	// Neighbor: each node talks to (id+1) mod n — nearest-neighbor rings.
	Neighbor
	// Transpose: node i talks to node (i + n/2) mod n — bisection stress.
	Transpose
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Hotspot:
		return "hotspot"
	case Neighbor:
		return "neighbor"
	case Transpose:
		return "transpose"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Config describes one run.
type Config struct {
	Nodes       int
	Pattern     Pattern
	Messages    int      // per node
	PayloadSize int      // Basic payload bytes (<= 88)
	Think       sim.Time // mean compute time between sends (0 = saturating)
	HotFraction int      // Hotspot: percent of traffic aimed at node 0
	Seed        int64
}

// Result is the outcome of one run.
type Result struct {
	Config
	Duration   sim.Time
	Sent       int
	Received   int
	Throughput float64 // payload MB/s machine-wide
	MsgPerSec  float64
	LatencyP50 sim.Time
	LatencyP99 sim.Time
	MaxAPUtil  float64 // worst aP utilization
	BusUtil    float64 // worst bus utilization
	Events     uint64  // engine events executed over the whole run
	TraceHash  uint64  // FNV-1a over the delivery trace; same seed => same hash
}

// seedFor derives the per-node RNG seed from the run seed: draw id+1 of the
// SplitMix64 stream over the run seed, reached by starting the stream id
// increments in. Node streams are decorrelated rather than linearly offset
// (and identical run seeds still give identical schedules).
func seedFor(seed int64, id int) int64 {
	r := sim.NewSplitMix64(uint64(seed) + 0x9E3779B97F4A7C15*uint64(id))
	return int64(r.Next())
}

// destFor computes one destination per the pattern.
func destFor(cfg Config, rng *rand.Rand, me int) int {
	n := cfg.Nodes
	switch cfg.Pattern {
	case Hotspot:
		if me != 0 && rng.Intn(100) < cfg.HotFraction {
			return 0
		}
		fallthrough
	case Uniform:
		for {
			d := rng.Intn(n)
			if d != me {
				return d
			}
		}
	case Neighbor:
		return (me + 1) % n
	case Transpose:
		return (me + n/2) % n
	default:
		panic("workload: unknown pattern")
	}
}

// Run executes the workload and gathers statistics. Each message carries
// its send timestamp; receivers sample delivery latency.
func Run(cfg Config) Result { return RunInstrumented(cfg, nil) }

// RunInstrumented is Run with a hook called on the freshly built machine
// before any traffic starts — the place to attach a trace buffer or grab
// the metrics registry. attach == nil degenerates to Run; the hook must not
// change simulated behavior (observers never schedule events), so results
// are identical either way.
func RunInstrumented(cfg Config, attach func(*core.Machine)) Result {
	if cfg.Nodes < 2 {
		panic("workload: need at least two nodes")
	}
	if cfg.PayloadSize < 8 {
		cfg.PayloadSize = 8
	}
	if cfg.PayloadSize > core.MaxBasicPayload {
		cfg.PayloadSize = core.MaxBasicPayload
	}
	m := core.NewMachine(cfg.Nodes)
	if attach != nil {
		attach(m)
	}
	var lat stats.Samples
	received := make([]int, cfg.Nodes)
	total := cfg.Nodes * cfg.Messages
	totalReceived := 0

	// The delivery trace hash folds in (receiver, send time, receive time)
	// for every message, in global delivery order. The engine is
	// single-threaded, so this order is well-defined; any divergence
	// between same-seed runs shows up as a different hash.
	traceHash := fnv.New64a()
	hashDelivery := func(node int, sentAt, at sim.Time) {
		var rec [24]byte
		binary.BigEndian.PutUint64(rec[0:], uint64(node))
		binary.BigEndian.PutUint64(rec[8:], uint64(sentAt))
		binary.BigEndian.PutUint64(rec[16:], uint64(at))
		traceHash.Write(rec[:])
	}

	for id := 0; id < cfg.Nodes; id++ {
		id := id
		rng := rand.New(rand.NewSource(seedFor(cfg.Seed, id)))
		m.Go(id, "gen", func(p *sim.Proc, a *core.API) {
			payload := make([]byte, cfg.PayloadSize)
			sent := 0
			// Every node keeps draining until the machine-wide message count
			// completes — otherwise a finished node's full Hold queue would
			// wedge senders still aiming at it.
			for sent < cfg.Messages || totalReceived < total {
				drained := false
				for {
					_, pl, ok := a.TryRecvBasic(p)
					if !ok {
						break
					}
					drained = true
					sentAt := sim.Time(binary.BigEndian.Uint64(pl))
					lat.Add(float64(p.Now() - sentAt))
					hashDelivery(id, sentAt, p.Now())
					received[id]++
					totalReceived++
				}
				switch {
				case sent < cfg.Messages:
					binary.BigEndian.PutUint64(payload, uint64(p.Now()))
					a.SendBasic(p, destFor(cfg, rng, id), payload)
					sent++
					if cfg.Think > 0 {
						a.Compute(p, sim.Time(rng.Int63n(int64(2*cfg.Think)+1)))
					}
				case !drained:
					p.Delay(200 * sim.Nanosecond) // idle-poll for stragglers
				}
			}
		})
	}
	m.Run()

	res := Result{Config: cfg, Duration: m.Eng.Now(), Sent: total, Received: totalReceived,
		Events: m.Eng.Executed(), TraceHash: traceHash.Sum64()}
	res.Throughput = stats.MBps(totalReceived*cfg.PayloadSize, res.Duration)
	res.MsgPerSec = float64(totalReceived) / float64(res.Duration) * 1e9
	res.LatencyP50 = sim.Time(lat.Percentile(50))
	res.LatencyP99 = sim.Time(lat.Percentile(99))
	for _, n := range m.Nodes {
		if u := n.APMeter.Utilization(0, res.Duration); u > res.MaxAPUtil {
			res.MaxAPUtil = u
		}
		if u := float64(n.Bus.BusyTime()) / float64(res.Duration); u > res.BusUtil {
			res.BusUtil = u
		}
	}
	m.Close()
	return res
}

// Table runs a set of patterns and formats the comparison.
func Table(nodes, messages, payload int, patterns []Pattern) *stats.Table {
	t := &stats.Table{
		Title: fmt.Sprintf("system workloads: %d nodes, %d msgs/node, %dB payloads",
			nodes, messages, payload),
		Columns: []string{"pattern", "duration", "agg MB/s", "msg/s",
			"p50 lat", "p99 lat", "max aP util"},
	}
	for _, pat := range patterns {
		r := Run(Config{Nodes: nodes, Pattern: pat, Messages: messages,
			PayloadSize: payload, HotFraction: 70, Seed: 11})
		t.AddRow(pat.String(), r.Duration.String(),
			fmt.Sprintf("%.1f", r.Throughput),
			fmt.Sprintf("%.0f", r.MsgPerSec),
			r.LatencyP50.String(), r.LatencyP99.String(),
			fmt.Sprintf("%.0f%%", 100*r.MaxAPUtil))
	}
	return t
}
