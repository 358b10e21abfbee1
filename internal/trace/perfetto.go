package trace

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"startvoyager/internal/sim"
)

// WritePerfetto writes events as a Chrome trace-event JSON file loadable in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing. Each node becomes
// a process and each component within it a thread, so the machine renders
// as one track per node×component. Timestamps are simulated microseconds
// (exact to the nanosecond: the engine's sim.Time divided by 1000 with
// three decimals), and the output is byte-identical for identical event
// streams: track ids are assigned in sorted (node, component) order and
// events are written in emission order.
//
// s.Dropped, when nonzero, is surfaced in the file's otherData block so a
// truncated trace is never mistaken for a complete one.
func WritePerfetto(w io.Writer, events []Event, s Stats) error {
	type trackKey struct {
		node int
		comp string
	}
	// Assign tids deterministically: sorted by node then component.
	keys := map[trackKey]bool{}
	for _, e := range events {
		keys[trackKey{e.Node, e.Component}] = true
	}
	var tracks []trackKey
	for k := range keys {
		tracks = append(tracks, k)
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].node != tracks[j].node {
			return tracks[i].node < tracks[j].node
		}
		return tracks[i].comp < tracks[j].comp
	})
	tid := make(map[trackKey]int, len(tracks))
	nextTid := map[int]int{}
	var nodes []int
	for _, k := range tracks {
		if _, seen := nextTid[k.node]; !seen {
			nextTid[k.node] = 1
			nodes = append(nodes, k.node)
		}
		tid[k] = nextTid[k.node]
		nextTid[k.node]++
	}

	var b strings.Builder
	b.WriteString("{\"displayTimeUnit\":\"ns\",\"otherData\":{")
	fmt.Fprintf(&b, "\"captured\":\"%d\",\"dropped\":\"%d\"", s.Captured, s.Dropped)
	if s.Dropped > 0 {
		b.WriteString(",\"truncated\":\"true\"")
	}
	b.WriteString("},\"traceEvents\":[")
	first := true
	emit := func(line string) {
		if !first {
			b.WriteString(",\n")
		} else {
			b.WriteString("\n")
			first = false
		}
		b.WriteString(line)
	}

	// Metadata: process (node) and thread (component) names.
	for _, n := range nodes {
		emit(fmt.Sprintf("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"node%d\"}}", n, n))
		emit(fmt.Sprintf("{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"sort_index\":%d}}", n, n))
	}
	for _, k := range tracks {
		emit(fmt.Sprintf("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":%s}}",
			k.node, tid[k], strconv.Quote(k.comp)))
		emit(fmt.Sprintf("{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"sort_index\":%d}}",
			k.node, tid[k], tid[k]))
	}

	// Flow events (arrows) chain each traced message's lifecycle instants:
	// "s" starts the flow at its first event, "t" steps through the middle
	// ones, "f" finishes at the last. Count occurrences up front so the
	// single emission pass knows each event's place in its chain.
	msgTotal := map[uint64]int{}
	for _, e := range events {
		if id := sim.MsgTagOf(e.Fields).ID; e.Kind == Instant && id != 0 {
			msgTotal[id]++
		}
	}
	msgSeen := map[uint64]int{}

	for _, e := range events {
		t := tid[trackKey{e.Node, e.Component}]
		switch e.Kind {
		case SpanBegin:
			emit(fmt.Sprintf("{\"name\":%s,\"ph\":\"B\",\"pid\":%d,\"tid\":%d,\"ts\":%s%s}",
				strconv.Quote(e.Name), e.Node, t, tsMicros(e.At), argsJSON(e.Fields)))
		case SpanEnd:
			emit(fmt.Sprintf("{\"ph\":\"E\",\"pid\":%d,\"tid\":%d,\"ts\":%s%s}",
				e.Node, t, tsMicros(e.At), argsJSON(e.Fields)))
		case Instant:
			emit(fmt.Sprintf("{\"name\":%s,\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"ts\":%s%s}",
				strconv.Quote(e.Name), e.Node, t, tsMicros(e.At), argsJSON(e.Fields)))
			if id := sim.MsgTagOf(e.Fields).ID; msgTotal[id] > 1 {
				msgSeen[id]++
				ph, bp := "t", ""
				switch msgSeen[id] {
				case 1:
					ph = "s"
				case msgTotal[id]:
					ph, bp = "f", ",\"bp\":\"e\""
				}
				emit(fmt.Sprintf("{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":%q,\"id\":%d%s,\"pid\":%d,\"tid\":%d,\"ts\":%s}",
					ph, id, bp, e.Node, t, tsMicros(e.At)))
			}
		case Counter:
			// Counters are keyed by (pid, name); prefix the component so the
			// same counter name on two components stays distinct.
			emit(fmt.Sprintf("{\"name\":%s,\"ph\":\"C\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"args\":{\"value\":%d}}",
				strconv.Quote(e.Component+"."+e.Name), e.Node, t, tsMicros(e.At), e.Value))
		}
	}
	b.WriteString("\n]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WritePerfetto exports the buffer's retained events.
func (b *Buffer) WritePerfetto(w io.Writer) error {
	return WritePerfetto(w, b.Events(), b.Stats())
}

// tsMicros renders a simulated time as exact decimal microseconds.
func tsMicros(t sim.Time) string {
	return fmt.Sprintf("%d.%03d", int64(t)/1000, int64(t)%1000)
}

// argsJSON renders fields as a trailing ,"args":{...} clause ("" if none).
func argsJSON(fields []sim.Field) string {
	if len(fields) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString(",\"args\":{")
	for i, f := range fields {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(f.Key))
		b.WriteByte(':')
		b.WriteString(strconv.Quote(f.Value()))
	}
	b.WriteByte('}')
	return b.String()
}
