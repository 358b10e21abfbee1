package trace

import (
	"encoding/json"
	"io"

	"startvoyager/internal/stats"
)

// PathSchema is the critical-path JSON export's schema identifier (the
// voyager-run -path document).
const PathSchema = "voyager-path/v1"

// pathStageJSON is one attributed stage interval in the JSON export.
type pathStageJSON struct {
	Stage string `json:"stage"`
	Ns    int64  `json:"ns"`
}

// pathMsgJSON is one reconstructed message chain in the JSON export.
type pathMsgJSON struct {
	ID       uint64          `json:"id"`
	Parent   uint64          `json:"parent,omitempty"`
	Src      int             `json:"src"`
	Dst      int             `json:"dst"` // -1: no receiving-side event seen
	Attempts uint32          `json:"attempts"`
	StartNs  int64           `json:"start_ns"`
	EndNs    int64           `json:"end_ns"`
	TotalNs  int64           `json:"total_ns"`
	Outcome  string          `json:"outcome"`
	Complete bool            `json:"complete"`
	DropWhy  string          `json:"drop_why,omitempty"`
	Stages   []pathStageJSON `json:"stages"`
}

// pathDoc is the top-level voyager-path/v1 document.
type pathDoc struct {
	Schema      string          `json:"schema"`
	Run         *stats.RunMeta  `json:"run,omitempty"`
	Msgs        int             `json:"msgs"`
	Delivered   int             `json:"delivered"`
	Dropped     int             `json:"dropped"`
	InFlight    int             `json:"in_flight"`
	Complete    int             `json:"complete_chains"`
	Orphans     int             `json:"orphans"`
	StageTotals []pathStageJSON `json:"stage_totals"`
	Messages    []pathMsgJSON   `json:"messages"`
}

func stageSpansJSON(spans []StageSpan) []pathStageJSON {
	out := make([]pathStageJSON, len(spans))
	for i, s := range spans {
		out[i] = pathStageJSON{Stage: s.Name, Ns: int64(s.Dur)}
	}
	return out
}

// WriteJSON writes the analysis as one compact voyager-path/v1 JSON document:
// summary counts, the aggregate stage attribution in canonical order, and
// every chain (ascending trace id) with its per-stage breakdown. Key order is
// fixed by the struct layout and messages are already sorted, so the output
// is byte-deterministic for identical event streams. meta may be nil.
func (a *PathAnalysis) WriteJSON(w io.Writer, meta *stats.RunMeta) error {
	delivered, dropped, inflight, complete := a.Counts()
	doc := pathDoc{
		Schema:      PathSchema,
		Run:         meta,
		Msgs:        len(a.Msgs),
		Delivered:   delivered,
		Dropped:     dropped,
		InFlight:    inflight,
		Complete:    complete,
		Orphans:     a.Orphans,
		StageTotals: stageSpansJSON(a.StageTotals()),
		Messages:    make([]pathMsgJSON, 0, len(a.Msgs)),
	}
	for _, m := range a.Msgs {
		doc.Messages = append(doc.Messages, pathMsgJSON{
			ID: m.ID, Parent: m.Parent, Src: m.SrcNode, Dst: m.DstNode,
			Attempts: m.Attempts,
			StartNs:  int64(m.Start), EndNs: int64(m.End), TotalNs: int64(m.Total()),
			Outcome: m.Outcome.String(), Complete: m.Complete, DropWhy: m.DropWhy,
			Stages: stageSpansJSON(m.Stages),
		})
	}
	out, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}
