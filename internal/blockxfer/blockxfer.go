// Package blockxfer implements the paper's Section 6 experiment: five
// implementations of block memory transfer (contiguous DRAM on one node to
// contiguous DRAM on another, with a message in the receiver's regular queue
// on completion), differing in how work is divided between the aP, the sP,
// and the NIU's hardware block units:
//
//	Approach 1 — the sender aP reads, packetizes into Basic messages and
//	            sends; the receiver aP copies into memory.
//	Approach 2 — the aP hands the transfer to the local sP, which moves data
//	            DRAM→aSRAM with command-queue bus operations and ships it in
//	            TagOn messages; the destination sP writes it to memory.
//	Approach 3 — hardware block-read and block-transmit units do everything;
//	            both processors are nearly idle.
//	Approach 4 — approach 3 plus optimistic early notification at 25% of the
//	            data, gated by clsSRAM state that the receiving sP maintains.
//	Approach 5 — approach 4 with the aBIU extension that updates clsSRAM in
//	            hardware as data arrives.
package blockxfer

import (
	"fmt"

	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/sim"
)

// Approach identifies one of the paper's five implementations.
type Approach int

// The five block-transfer approaches of Section 6.
const (
	A1 Approach = 1 + iota
	A2
	A3
	A4
	A5
)

// String names the approach as the paper does.
func (a Approach) String() string { return fmt.Sprintf("approach-%d", int(a)) }

// Source and destination placement used by all approaches.
const (
	srcAddr = 0x0010_0000 // sender DRAM
	dstAddr = 0x0020_0000 // receiver DRAM (approaches 1-3)
	dstOff  = 0x0000_0000 // receiver S-COMA window offset (approaches 4-5)

	// EarlyNotifyNum/Den: approaches 4-5 notify the receiver after this
	// fraction of the data has been transmitted.
	EarlyNotifyNum = 1
	EarlyNotifyDen = 4
)

// Metrics is the outcome of one measurement.
type Metrics struct {
	Approach Approach
	Size     int

	// Latency: sender initiation until the receiver has been notified AND
	// every byte is present in its memory (for approaches 4-5 notification
	// comes earlier; DataComplete records when the data actually finished).
	Latency      sim.Time
	NotifyAt     sim.Time // initiation -> notification at the receiver aP
	DataComplete sim.Time // initiation -> last byte in receiver memory
	// ConsumeDone: initiation -> receiver has read (consumed) every byte,
	// starting its reads at notification time. This is where the optimistic
	// approaches win.
	ConsumeDone sim.Time

	// Bandwidth is measured with back-to-back transfers (MB/s of payload).
	Bandwidth float64

	// Occupancy during the latency run.
	APSrcBusy, APDstBusy sim.Time
	SPSrcBusy, SPDstBusy sim.Time
}

// ConfigHook lets ablation experiments alter the machine configuration
// (e.g. link speed) before each measurement; nil leaves the defaults.
type ConfigHook func(*cluster.Config)

// machine builds a fresh two-node machine for one measurement.
func machine(a Approach, hook ConfigHook) *core.Machine {
	cfg := cluster.DefaultConfig(2)
	if a == A4 || a == A5 {
		cfg.DisableScomaProtocol = true // cls arrival gating without a directory
	}
	if hook != nil {
		hook(&cfg)
	}
	return core.NewMachineConfig(cfg)
}

// Transfer is one approach's implementation harness. Send runs on the
// sender's aP, Receive/Consume on the receiver's aP; DataComplete reports
// the absolute time the last byte landed in receiver memory.
type Transfer interface {
	Send(p *sim.Proc, api *core.API)
	Receive(p *sim.Proc, api *core.API)
	Consume(p *sim.Proc, api *core.API)
	DstCheckAddr() uint32
	DataComplete() sim.Time
}

// NewTransfer installs any approach-specific firmware on a two-node machine
// (sender node 0, receiver node 1) and returns the harness wrapped with
// tracing: when an observer is attached, each Send is bracketed by a span on
// the sender's "blockxfer" track and each Receive marks the notification
// with an instant on the receiver's.
func NewTransfer(a Approach, m *core.Machine, size int) Transfer {
	return &observedTransfer{inner: rawTransfer(a, m, size), m: m, a: a, size: size}
}

// rawTransfer builds the uninstrumented harness.
func rawTransfer(a Approach, m *core.Machine, size int) Transfer {
	switch a {
	case A1:
		return newA1(m, size)
	case A2:
		return newA2(m, size)
	case A3:
		return newA3(m, size)
	case A4, A5:
		return newA45(a, m, size)
	default:
		panic(fmt.Sprintf("blockxfer: unknown approach %d", a))
	}
}

// observedTransfer traces the lifecycle of each transfer. Sends on one
// machine never overlap (one harness, one sender proc), so the sender's
// "blockxfer" track carries well-nested spans.
type observedTransfer struct {
	inner Transfer
	m     *core.Machine
	a     Approach
	size  int
}

func (o *observedTransfer) Send(p *sim.Proc, api *core.API) {
	var span sim.Span
	if o.m.Eng.Observed() {
		span = o.m.Eng.BeginSpan(0, "blockxfer", o.a.String(), sim.Int("size", o.size))
	}
	o.inner.Send(p, api)
	span.End()
}

func (o *observedTransfer) Receive(p *sim.Proc, api *core.API) {
	o.inner.Receive(p, api)
	if o.m.Eng.Observed() {
		o.m.Eng.Instant(1, "blockxfer", "notify", sim.Str("approach", o.a.String()))
	}
}

func (o *observedTransfer) Consume(p *sim.Proc, api *core.API) { o.inner.Consume(p, api) }
func (o *observedTransfer) DstCheckAddr() uint32               { return o.inner.DstCheckAddr() }
func (o *observedTransfer) DataComplete() sim.Time             { return o.inner.DataComplete() }

// fillPattern writes a deterministic test pattern.
func fillPattern(buf []byte, seed byte) {
	for i := range buf {
		buf[i] = byte(i*31+7) ^ seed
	}
}

// MeasureLatency runs only the single-transfer experiment for one point:
// one instrumented transfer, whose receiver consumes the data after
// notification, with the data integrity verified and each processor's
// occupancy recorded.
func MeasureLatency(a Approach, size int) Metrics {
	m := machine(a, nil)
	defer m.Close()
	src := make([]byte, size)
	fillPattern(src, byte(a))
	m.API(0).Poke(srcAddr, src)

	res := Metrics{Approach: a, Size: size}
	var start sim.Time
	xfer := NewTransfer(a, m, size)

	m.Go(0, "xfer-src", func(p *sim.Proc, api *core.API) {
		start = p.Now()
		xfer.Send(p, api)
	})
	m.Go(1, "xfer-dst", func(p *sim.Proc, api *core.API) {
		xfer.Receive(p, api)
		res.NotifyAt = p.Now() - start
		xfer.Consume(p, api)
		res.ConsumeDone = p.Now() - start
	})
	m.Run()
	res.DataComplete = xfer.DataComplete() - start
	res.Latency = res.NotifyAt
	if res.DataComplete > res.Latency {
		res.Latency = res.DataComplete
	}
	// Verify integrity.
	got := make([]byte, size)
	m.API(1).Peek(xfer.DstCheckAddr(), got)
	for i := range got {
		if got[i] != src[i] {
			panic(fmt.Sprintf("blockxfer: %v size %d corrupt at %d: %#x != %#x",
				a, size, i, got[i], src[i]))
		}
	}
	res.APSrcBusy = m.Nodes[0].APMeter.BusyTime()
	res.APDstBusy = m.Nodes[1].APMeter.BusyTime()
	res.SPSrcBusy = m.Nodes[0].FW.BusyTime()
	res.SPDstBusy = m.Nodes[1].FW.BusyTime()
	return res
}

// Measure runs the latency, consumption, and bandwidth experiments for one
// (approach, size) point and verifies data integrity.
func Measure(a Approach, size int) Metrics {
	m := MeasureLatency(a, size)
	m.Bandwidth = MeasureBandwidth(a, size, nil)
	return m
}

// MeasureBandwidth runs only the streaming experiment: back-to-back
// transfers, reporting steady-state payload bandwidth (MB/s), on a machine
// altered by hook (ablations: network speed, topology, firmware costs); a
// nil hook measures the default machine.
func MeasureBandwidth(a Approach, size int, hook ConfigHook) float64 {
	reps := 4
	if size*reps < 64<<10 {
		reps = (64 << 10) / size // small transfers: more reps for steadiness
	}
	m := machine(a, hook)
	defer m.Close()
	src := make([]byte, size)
	fillPattern(src, byte(a))
	m.API(0).Poke(srcAddr, src)

	var start, end sim.Time
	xfer := NewTransfer(a, m, size)
	m.Go(0, "bw-src", func(p *sim.Proc, api *core.API) {
		start = p.Now()
		for r := 0; r < reps; r++ {
			xfer.Send(p, api)
		}
	})
	m.Go(1, "bw-dst", func(p *sim.Proc, api *core.API) {
		for r := 0; r < reps; r++ {
			xfer.Receive(p, api)
		}
		end = p.Now()
	})
	m.Run()
	total := size * reps
	return float64(total) / float64(end-start) * 1e9 / 1e6
}
