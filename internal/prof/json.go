package prof

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"startvoyager/internal/stats"
)

// Schema identifies the profile JSON document format.
const Schema = "voyager-prof/v1"

// Doc is the exported profile: the single source all three output formats
// (JSON, folded stacks, pprof) derive from, so their totals agree by
// construction.
type Doc struct {
	Schema  string         `json:"schema"`
	Run     *stats.RunMeta `json:"run,omitempty"`
	SimNs   int64          `json:"sim_ns"`   // simulated run length (Finish time)
	TotalNs int64          `json:"total_ns"` // sum of all proc lifetimes
	Procs   []ProcEntry    `json:"procs"`
	Tree    []*TreeNode    `json:"tree"`
}

// ProcEntry is one Proc's lifetime accounting. BusyNs+CondNs+QueueNs ==
// EndNs-SpawnNs exactly (the telescoping invariant).
type ProcEntry struct {
	Name    string `json:"name"`
	Group   string `json:"group"` // "node<n>/<comp>" or "host"
	SpawnNs int64  `json:"spawn_ns"`
	EndNs   int64  `json:"end_ns"`
	BusyNs  int64  `json:"busy_ns"`
	CondNs  int64  `json:"cond_ns"`
	QueueNs int64  `json:"queue_ns"`
	Live    bool   `json:"live,omitempty"` // still running at Finish
}

// TreeNode is one attribution-tree vertex with per-bucket self times.
type TreeNode struct {
	Name     string      `json:"name"`
	Kind     string      `json:"kind"` // "frame", "cond", "queue"
	BusyNs   int64       `json:"busy_ns,omitempty"`
	CondNs   int64       `json:"cond_ns,omitempty"`
	QueueNs  int64       `json:"queue_ns,omitempty"`
	Children []*TreeNode `json:"children,omitempty"`
}

// SelfNs returns the node's total self time across buckets.
func (n *TreeNode) SelfNs() int64 { return n.BusyNs + n.CondNs + n.QueueNs }

// CumNs returns self plus all descendants' self time.
func (n *TreeNode) CumNs() int64 {
	total := n.SelfNs()
	for _, c := range n.Children {
		total += c.CumNs()
	}
	return total
}

func kindString(k Kind) string {
	switch k {
	case KindCond:
		return "cond"
	case KindQueue:
		return "queue"
	default:
		return "frame"
	}
}

// exportTree converts the interned accounting tree into the export form,
// sorting children by (kind, name) so output order is independent of map
// iteration order.
func exportTree(n *node) []*TreeNode {
	if len(n.children) == 0 {
		return nil
	}
	out := make([]*TreeNode, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, &TreeNode{
			Name:     c.name,
			Kind:     kindString(c.kind),
			BusyNs:   int64(c.busy),
			CondNs:   int64(c.cond),
			QueueNs:  int64(c.queue),
			Children: exportTree(c),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Doc snapshots the finished profile as an export document. meta may be nil.
// Doc panics if Finish has not been called: an unfinished profile has open
// intervals and would violate the telescoping invariant.
func (pr *Profiler) Doc(meta *stats.RunMeta) *Doc {
	if !pr.finished {
		panic("prof: Doc called before Finish")
	}
	d := &Doc{
		Schema: Schema,
		Run:    meta,
		SimNs:  int64(pr.finishAt),
		Procs:  make([]ProcEntry, 0, len(pr.order)),
		Tree:   exportTree(&pr.root),
	}
	for _, rec := range pr.order {
		d.TotalNs += int64(rec.endAt - rec.spawnAt)
		d.Procs = append(d.Procs, ProcEntry{
			Name:    rec.name,
			Group:   rec.group,
			SpawnNs: int64(rec.spawnAt),
			EndNs:   int64(rec.endAt),
			BusyNs:  int64(rec.busy),
			CondNs:  int64(rec.cond),
			QueueNs: int64(rec.queue),
			Live:    rec.live,
		})
	}
	return d
}

// WriteJSON writes the document as indented JSON with a trailing newline.
// Output is byte-stable for identical profiles.
func (d *Doc) WriteJSON(w io.Writer) error {
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}

// The refusals of ReadDoc: every error it returns for a document it read
// wraps one of them.
var (
	// ErrDocJSON reports input that does not decode as a profile document.
	ErrDocJSON = errors.New("prof: profile document does not decode")
	// ErrSchema reports a document of another schema.
	ErrSchema = errors.New("prof: not a " + Schema + " document")
	// ErrNullTreeNode reports a profile document whose tree holds a null
	// node.
	ErrNullTreeNode = errors.New("prof: null tree node")
	// ErrProcTimes reports a profile document with a proc entry that breaks
	// the telescoping law: a negative time or bucket, or buckets that do not
	// sum to the proc's lifetime.
	ErrProcTimes = errors.New("prof: proc times break the telescoping law")
)

// ReadDoc parses a voyager-prof/v1 JSON document. A document it accepts
// renders through WriteReport, WriteFolded and WritePprof.
func ReadDoc(r io.Reader) (*Doc, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var d Doc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrDocJSON, err)
	}
	if d.Schema != Schema {
		return nil, fmt.Errorf("%w: schema %q", ErrSchema, d.Schema)
	}
	if err := checkTree(d.Tree); err != nil {
		return nil, err
	}
	for _, pe := range d.Procs {
		if err := pe.check(); err != nil {
			return nil, err
		}
	}
	return &d, nil
}

// check holds a parsed entry to the telescoping law: the proc lives from
// spawn to end, and its three buckets split that lifetime exactly. The
// comparisons are ordered so that no sum can overflow.
func (pe ProcEntry) check() error {
	life := pe.EndNs - pe.SpawnNs
	if pe.SpawnNs < 0 || pe.EndNs < pe.SpawnNs || pe.BusyNs < 0 || pe.CondNs < 0 || pe.QueueNs < 0 ||
		pe.BusyNs > life || pe.CondNs > life-pe.BusyNs || pe.QueueNs != life-pe.BusyNs-pe.CondNs {
		return fmt.Errorf("%w: proc %q spawn_ns=%d end_ns=%d busy_ns=%d cond_ns=%d queue_ns=%d",
			ErrProcTimes, pe.Name, pe.SpawnNs, pe.EndNs, pe.BusyNs, pe.CondNs, pe.QueueNs)
	}
	return nil
}

// checkTree rejects a null node anywhere in a parsed tree.
func checkTree(ns []*TreeNode) error {
	for _, n := range ns {
		if n == nil {
			return ErrNullTreeNode
		}
		if err := checkTree(n.Children); err != nil {
			return err
		}
	}
	return nil
}

// ReadDocFile parses the profile JSON at path.
func ReadDocFile(path string) (*Doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := ReadDoc(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}
