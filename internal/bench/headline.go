package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"startvoyager/internal/core"
	"startvoyager/internal/sim"
	"startvoyager/internal/trace"
)

// Headline latency probe: one small fixed workload per MP mechanism, traced,
// with the mean delivered end-to-end latency extracted from the causal path
// analysis. The engine is deterministic, so these numbers are bit-stable for
// a given code state — CI byte-compares them with the committed
// BENCH_baseline.json, so any change, faster or slower, fails until the
// baseline is refreshed on purpose.

// PathMechs lists the MP mechanisms covered by the probe.
var PathMechs = []string{"basic", "express", "tagon", "dma", "reliable"}

// headlineMsgs is the per-mechanism message count of the probe workload.
const headlineMsgs = 8

// headlineSize is the probe's payload per mechanism in bytes (dma: transfer
// bytes); tagon and express send their own one-byte payloads.
var headlineSize = map[string]int{"basic": 4, "reliable": 1, "dma": 128}

// RunMechTraced executes the fixed two-node workload of one MP mechanism
// with a trace buffer attached and returns the buffer. Panics on an unknown
// mechanism or a failed reliable send (the probe runs fault-free).
func RunMechTraced(mech string) *trace.Buffer {
	m := core.NewMachine(2)
	tbuf := m.Trace(1 << 18)
	delivery := AllToOne{Mech: mech, Count: headlineMsgs, Size: headlineSize[mech]}.Spawn(m)
	m.Run()
	if delivery.Failed > 0 {
		panic(fmt.Sprintf("bench: headline: %d reliable sends failed", delivery.Failed))
	}
	if d := tbuf.Stats().Dropped; d != 0 {
		panic(fmt.Sprintf("bench: headline trace ring dropped %d events", d))
	}
	m.Close()
	return tbuf
}

// HeadlineLatencies runs the probe for every mechanism and returns the
// headline numbers: mean delivered end-to-end latency and total
// retransmit-penalty per mechanism, in nanoseconds. Per-mechanism cells
// are independent machines, so they fan across up to workers goroutines;
// the returned map is identical at any worker count.
func HeadlineLatencies(workers int) map[string]int64 {
	means := Cells(len(PathMechs), workers, func(i int) int64 {
		mech := PathMechs[i]
		a := trace.AnalyzePaths(RunMechTraced(mech).Events())
		var sum sim.Time
		n := 0
		for _, m := range a.Msgs {
			if m.Outcome == trace.Delivered {
				sum += m.Total()
				n++
			}
		}
		if n == 0 {
			panic(fmt.Sprintf("bench: headline %s delivered nothing", mech))
		}
		return int64(sum) / int64(n)
	})
	out := make(map[string]int64, len(PathMechs))
	for i, mech := range PathMechs {
		out[mech+"_e2e_mean_ns"] = means[i]
	}
	return out
}

// WriteHeadline renders latencies as the BENCH_baseline.json document
// (voyager-headline/v1, keys sorted).
func WriteHeadline(w io.Writer, latencies map[string]int64) error {
	out, err := json.MarshalIndent(struct {
		Schema    string           `json:"schema"`
		Latencies map[string]int64 `json:"latencies"`
	}{"voyager-headline/v1", latencies}, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}
