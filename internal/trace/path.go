package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// Critical-path analysis: reconstruct each traced message's lifecycle stage
// chain from the event ring and attribute its end-to-end latency to named
// stages. The carriage layers emit one instant per lifecycle point, all
// carrying an I64 "msg" field with the message's trace id:
//
//	msg-send     allocation: the moment the sender commits the message
//	msg-launch   CTRL TX engine hands the frame to the network port
//	inject       packet enters the Arctic fabric
//	deliver      packet accepted by the destination endpoint
//	msg-exec     CTRL executes a command frame (block writes, notify)
//	msg-enq      payload landed in an RX queue slot
//	msg-consume  receiver (aP library or sP firmware) takes the message
//	msg-drop     packet killed (fault, garbage, dead node, full queue, ...)
//
// Every interval between consecutive events of one message is attributed to
// exactly one stage, so the per-stage durations telescope: they sum to the
// end-to-end latency with no residue. Intervals that repeat or regress the
// lifecycle (a retransmitted launch, time lost reaching a drop, the timeout
// gap after one) are charged to retransmit-penalty.

// Stage names, in canonical pipeline order.
const (
	StageTxQueueWait = "tx-queue-wait"      // msg-send -> msg-launch
	StageBusTenure   = "bus-tenure"         // msg-launch -> inject
	StageNetFlight   = "net-flight"         // inject -> deliver
	StageCmdExec     = "cmd-exec"           // deliver -> msg-exec
	StageRxFormat    = "rx-format"          // deliver/msg-exec -> msg-enq
	StageRxQueueWait = "rx-queue-wait"      // msg-enq -> msg-consume (aP)
	StageSpDispatch  = "sp-dispatch"        // msg-enq -> msg-consume (sP firmware)
	StageRetransmit  = "retransmit-penalty" // lost attempts and timeout gaps
)

// StageOrder lists every stage in canonical reporting order.
var StageOrder = []string{
	StageTxQueueWait, StageBusTenure, StageNetFlight, StageCmdExec,
	StageRxFormat, StageRxQueueWait, StageSpDispatch, StageRetransmit,
}

// stagePos orders lifecycle events; a transition that does not move forward
// is a retransmission artifact. msg-drop sorts after every lifecycle point
// (a drop is always the result of the same-time event preceding it).
var stagePos = map[string]int{
	"msg-send": 0, "msg-launch": 1, "inject": 2, "deliver": 3,
	"msg-exec": 4, "msg-enq": 5, "msg-consume": 6, "msg-drop": 7,
}

// Outcome classifies how a message's chain ended.
type Outcome uint8

// Chain outcomes.
const (
	// InFlight: the trace ended before the message reached a terminal stage.
	InFlight Outcome = iota
	// Delivered: the chain ends in a consume or command execution.
	Delivered
	// Dropped: the chain's final event is a drop (message lost for good).
	Dropped
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case Dropped:
		return "dropped"
	default:
		return "in-flight"
	}
}

// StageSpan is one attributed slice of a message's lifetime.
type StageSpan struct {
	Name string
	Dur  sim.Time
}

// MsgPath is the reconstructed causal chain of one traced message.
type MsgPath struct {
	ID      uint64
	Parent  uint64 // trace id of the message that caused this one (0 = root)
	SrcNode int
	DstNode int // -1 until a receiving-side event is seen
	// Attempts is the highest transmission attempt observed (1 = no
	// retransmission).
	Attempts uint32
	Start    sim.Time
	End      sim.Time
	// Stages holds every attributed interval in event order; adjacent
	// intervals with the same stage name are merged.
	Stages  []StageSpan
	Outcome Outcome
	// Complete reports a gap-free delivered chain: it starts at msg-send,
	// passes launch, inject and deliver, and terminates in a consume or a
	// command execution.
	Complete bool
	// DropWhy is the last drop reason seen ("" if none).
	DropWhy string

	first, last string // first/last event names, for completeness checks
	seen        map[string]bool
}

// Total returns the end-to-end latency (equal to the sum of Stages).
func (m *MsgPath) Total() sim.Time { return m.End - m.Start }

// Stage returns the total duration attributed to the named stage.
func (m *MsgPath) Stage(name string) sim.Time {
	var d sim.Time
	for _, s := range m.Stages {
		if s.Name == name {
			d += s.Dur
		}
	}
	return d
}

// PathAnalysis is the result of reconstructing every traced message in an
// event stream.
type PathAnalysis struct {
	// Msgs holds one entry per traced message id, ascending.
	Msgs []*MsgPath
	// Orphans counts chains whose first retained event is not msg-send —
	// evidence of ring truncation, never of a healthy run.
	Orphans int

	byID map[uint64]*MsgPath
}

// AnalyzePaths reconstructs causal chains from an event stream (as returned
// by Buffer.Events: emission order). Events without an I64 "msg" field are
// ignored.
func AnalyzePaths(events []Event) *PathAnalysis {
	a := &PathAnalysis{byID: make(map[uint64]*MsgPath)}
	chains := map[uint64][]Event{}
	var ids []uint64
	for _, e := range events {
		if e.Kind != Instant {
			continue
		}
		if id := sim.MsgTagOf(e.Fields).ID; id != 0 {
			if _, seen := chains[id]; !seen {
				ids = append(ids, id)
			}
			chains[id] = append(chains[id], e)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		evs := chains[id]
		// Canonicalize same-timestamp ordering by pipeline position: command
		// frames execute synchronously inside the endpoint's TryDeliver, so
		// their msg-exec is emitted before the fabric's deliver instant even
		// though the pipeline order is deliver-then-exec.
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].At != evs[j].At {
				return evs[i].At < evs[j].At
			}
			return stagePos[evs[i].Name] < stagePos[evs[j].Name]
		})
		m := &MsgPath{ID: id, SrcNode: evs[0].Node, DstNode: -1, Attempts: 1,
			Start: evs[0].At, End: evs[len(evs)-1].At,
			first: evs[0].Name, last: evs[len(evs)-1].Name,
			seen: make(map[string]bool)}
		a.byID[id] = m
		a.Msgs = append(a.Msgs, m)
		for i, e := range evs {
			if i > 0 {
				m.Stages = appendStage(m.Stages, stageFor(evs[i-1], e), e.At-evs[i-1].At)
			}
			tag := sim.MsgTagOf(e.Fields)
			if tag.Parent != 0 {
				m.Parent = tag.Parent
			}
			if tag.Attempt > m.Attempts {
				m.Attempts = tag.Attempt
			}
			switch e.Name {
			case "deliver", "msg-exec", "msg-enq", "msg-consume":
				m.DstNode = e.Node
			case "msg-drop":
				for _, f := range e.Fields {
					if f.Key == "why" {
						m.DropWhy = f.Value()
					}
				}
			}
			m.seen[e.Name] = true
		}
		switch m.last {
		case "msg-drop":
			m.Outcome = Dropped
		case "msg-consume", "msg-exec":
			m.Outcome = Delivered
		}
		m.Complete = m.Outcome == Delivered && m.first == "msg-send" &&
			m.seen["msg-launch"] && m.seen["inject"] && m.seen["deliver"]
		if m.first != "msg-send" {
			a.Orphans++
		}
	}
	return a
}

// stageFor names the stage owning the interval between two consecutive
// events of one message.
func stageFor(prev, cur Event) string {
	if prev.Name == "msg-drop" || cur.Name == "msg-drop" {
		return StageRetransmit
	}
	if stagePos[cur.Name] <= stagePos[prev.Name] {
		return StageRetransmit // lifecycle regressed: a new attempt
	}
	switch cur.Name {
	case "msg-launch":
		return StageTxQueueWait
	case "inject":
		return StageBusTenure
	case "deliver":
		return StageNetFlight
	case "msg-exec":
		return StageCmdExec
	case "msg-enq":
		return StageRxFormat
	case "msg-consume":
		if cur.Component == "fw" {
			return StageSpDispatch
		}
		return StageRxQueueWait
	}
	return StageRetransmit
}

// appendStage adds an interval, merging into the previous span when the
// stage repeats (Go-Back-N retransmit bursts would otherwise fragment).
func appendStage(stages []StageSpan, name string, d sim.Time) []StageSpan {
	if n := len(stages); n > 0 && stages[n-1].Name == name {
		stages[n-1].Dur += d
		return stages
	}
	return append(stages, StageSpan{Name: name, Dur: d})
}

// Slowest returns a view of the analysis restricted to the n messages with
// the highest end-to-end latency (ties broken by ascending id; the result
// stays in id order). n <= 0 or n >= len returns the receiver unchanged.
func (a *PathAnalysis) Slowest(n int) *PathAnalysis {
	if n <= 0 || n >= len(a.Msgs) {
		return a
	}
	ranked := append([]*MsgPath(nil), a.Msgs...)
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].Total() != ranked[j].Total() {
			return ranked[i].Total() > ranked[j].Total()
		}
		return ranked[i].ID < ranked[j].ID
	})
	out := &PathAnalysis{Orphans: a.Orphans, byID: make(map[uint64]*MsgPath, n)}
	for _, m := range ranked[:n] {
		out.Msgs = append(out.Msgs, m)
		out.byID[m.ID] = m
	}
	sort.Slice(out.Msgs, func(i, j int) bool { return out.Msgs[i].ID < out.Msgs[j].ID })
	return out
}

// Msg returns the chain for a trace id (nil if unseen).
func (a *PathAnalysis) Msg(id uint64) *MsgPath { return a.byID[id] }

// Counts returns how many chains ended in each outcome.
func (a *PathAnalysis) Counts() (delivered, dropped, inflight, complete int) {
	for _, m := range a.Msgs {
		switch m.Outcome {
		case Delivered:
			delivered++
		case Dropped:
			dropped++
		default:
			inflight++
		}
		if m.Complete {
			complete++
		}
	}
	return delivered, dropped, inflight, complete
}

// StageTotals aggregates attributed time per stage across all chains, in
// canonical order (zero-duration stages that never occurred are omitted).
func (a *PathAnalysis) StageTotals() []StageSpan {
	sum := map[string]sim.Time{}
	seen := map[string]bool{}
	for _, m := range a.Msgs {
		for _, s := range m.Stages {
			sum[s.Name] += s.Dur
			seen[s.Name] = true
		}
	}
	var out []StageSpan
	for _, name := range StageOrder {
		if seen[name] {
			out = append(out, StageSpan{Name: name, Dur: sum[name]})
		}
	}
	return out
}

// RegisterMetrics publishes the analysis into a stats registry: one latency
// histogram per stage (per-message attributed nanoseconds) plus chain
// counters. Call on a Child scope, e.g. reg.Child("path").
func (a *PathAnalysis) RegisterMetrics(reg *stats.Registry) {
	hists := map[string]*stats.Histogram{}
	for _, name := range StageOrder {
		hists[name] = stats.NewHistogram(stats.ExpBounds(100, 2, 16)...)
	}
	var e2e = stats.NewHistogram(stats.ExpBounds(1000, 2, 14)...)
	for _, m := range a.Msgs {
		if m.Outcome != Delivered {
			continue
		}
		e2e.ObserveTime(m.Total())
		for _, name := range StageOrder {
			if d := m.Stage(name); d > 0 || (name != StageRetransmit && m.seen[stageEvent(name)]) {
				hists[name].Observe(int64(d))
			}
		}
	}
	for _, name := range StageOrder {
		reg.Histogram(strings.ReplaceAll(name, "-", "_")+"_ns", hists[name])
	}
	reg.Histogram("end_to_end_ns", e2e)
	delivered, dropped, inflight, complete := a.Counts()
	reg.Gauge("msgs", func() int64 { return int64(len(a.Msgs)) })
	reg.Gauge("delivered", func() int64 { return int64(delivered) })
	reg.Gauge("dropped", func() int64 { return int64(dropped) })
	reg.Gauge("in_flight", func() int64 { return int64(inflight) })
	reg.Gauge("complete_chains", func() int64 { return int64(complete) })
	reg.Gauge("orphans", func() int64 { return int64(a.Orphans) })
}

// stageEvent maps a stage to the event whose presence means the stage
// happened (possibly with zero duration).
func stageEvent(stage string) string {
	switch stage {
	case StageTxQueueWait:
		return "msg-launch"
	case StageBusTenure:
		return "inject"
	case StageNetFlight:
		return "deliver"
	case StageCmdExec:
		return "msg-exec"
	case StageRxFormat:
		return "msg-enq"
	case StageRxQueueWait, StageSpDispatch:
		return "msg-consume"
	}
	return ""
}

// WriteWaterfall renders the deterministic per-message latency report: one
// block per message (ascending trace id) with its stage breakdown, followed
// by the aggregate critical-path attribution. Byte-identical for identical
// event streams.
func (a *PathAnalysis) WriteWaterfall(w io.Writer) error {
	var b strings.Builder
	delivered, dropped, inflight, complete := a.Counts()
	fmt.Fprintf(&b, "causal path report: %d messages (%d delivered, %d dropped, %d in-flight), %d complete chains\n",
		len(a.Msgs), delivered, dropped, inflight, complete)
	if a.Orphans > 0 {
		fmt.Fprintf(&b, "WARNING: %d orphan chains (trace ring truncated; raise -trace-cap)\n", a.Orphans)
	}
	for _, m := range a.Msgs {
		b.WriteByte('\n')
		fmt.Fprintf(&b, "msg %d  n%d", m.ID, m.SrcNode)
		if m.DstNode >= 0 {
			fmt.Fprintf(&b, "->n%d", m.DstNode)
		}
		if m.Parent != 0 {
			fmt.Fprintf(&b, "  parent=%d", m.Parent)
		}
		if m.Attempts > 1 {
			fmt.Fprintf(&b, "  attempts=%d", m.Attempts)
		}
		fmt.Fprintf(&b, "  total=%v  [%s", m.Total(), m.Outcome)
		if m.DropWhy != "" {
			fmt.Fprintf(&b, ": %s", m.DropWhy)
		}
		b.WriteString("]\n")
		for _, s := range m.Stages {
			writeStageLine(&b, s, m.Total())
		}
	}
	totals := a.StageTotals()
	var grand sim.Time
	for _, s := range totals {
		grand += s.Dur
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "critical-path attribution (all chains, %v attributed)\n", grand)
	for _, s := range totals {
		writeStageLine(&b, s, grand)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeStageLine renders one "  name  dur  pct%  bar" row. Percentages are
// computed in integer tenths, keeping the output platform-independent.
func writeStageLine(b *strings.Builder, s StageSpan, total sim.Time) {
	tenths := int64(0)
	if total > 0 {
		tenths = int64(s.Dur) * 1000 / int64(total)
	}
	bar := strings.Repeat("#", int(tenths/25)) // full scale = 40 chars
	fmt.Fprintf(b, "  %-19s %12v %4d.%d%%  %s\n", s.Name, s.Dur, tenths/10, tenths%10, bar)
}
