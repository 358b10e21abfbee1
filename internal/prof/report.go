package prof

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// flatRow is one flattened tree node: the full folded path plus its self and
// cumulative times.
type flatRow struct {
	path  string
	self  int64
	cum   int64
	busy  int64
	cond  int64
	queue int64
}

// flatten walks the tree depth-first, producing one row per node in
// deterministic tree order. Paths use the folded-stack rendering
// ("group;proc;frame;wait:label").
func (d *Doc) flatten() []flatRow {
	var rows []flatRow
	var stack []string
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		stack = append(stack, leafLabel(n))
		rows = append(rows, flatRow{
			path:  strings.Join(stack, ";"),
			self:  n.SelfNs(),
			cum:   n.CumNs(),
			busy:  n.BusyNs,
			cond:  n.CondNs,
			queue: n.QueueNs,
		})
		for _, c := range n.Children {
			walk(c)
		}
		stack = stack[:len(stack)-1]
	}
	for _, n := range d.Tree {
		walk(n)
	}
	return rows
}

// groupTotal is one node/component rollup accumulated from proc entries.
type groupTotal struct {
	group string
	node  int // -1 for host
	comp  string
	busy  int64
	cond  int64
	queue int64
	procs int
}

// splitGroup parses a "node<n>/<comp>" group name; host groups return
// (-1, group).
func splitGroup(group string) (node int, comp string) {
	var n int
	var c string
	if k, err := fmt.Sscanf(group, "node%d/%s", &n, &c); err == nil && k == 2 {
		return n, c
	}
	return -1, group
}

// groupTotals aggregates proc bucket times by group, sorted by group name.
func (d *Doc) groupTotals() []*groupTotal {
	byGroup := map[string]*groupTotal{}
	for i := range d.Procs {
		p := &d.Procs[i]
		g := byGroup[p.Group]
		if g == nil {
			node, comp := splitGroup(p.Group)
			g = &groupTotal{group: p.Group, node: node, comp: comp}
			byGroup[p.Group] = g
		}
		g.busy += p.BusyNs
		g.cond += p.CondNs
		g.queue += p.QueueNs
		g.procs++
	}
	out := make([]*groupTotal, 0, len(byGroup))
	for _, g := range byGroup {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].node != out[j].node {
			return out[i].node < out[j].node
		}
		return out[i].group < out[j].group
	})
	return out
}

func fmtNs(ns int64) string { return sim.Time(ns).String() }

// trimPath elides the middle of over-long folded paths, keeping the root
// group and as much of the leaf end as fits.
func trimPath(path string, max int) string {
	if len(path) <= max {
		return path
	}
	parts := strings.Split(path, ";")
	if len(parts) <= 2 {
		return path
	}
	head := parts[0]
	tail := parts[len(parts)-1]
	for i := len(parts) - 2; i > 0; i-- {
		cand := parts[i] + ";" + tail
		if len(head)+4+len(cand) > max {
			break
		}
		tail = cand
	}
	out := head + ";..;" + tail
	if len(out) >= len(path) {
		return path
	}
	return out
}

// WriteReport renders the human-readable profile report: run header, top-N
// frames by self and by cumulative time, per-group occupancy, and component
// rollups across nodes. Output is deterministic for identical documents.
func (d *Doc) WriteReport(w io.Writer, topN int) error {
	if topN <= 0 {
		topN = 10
	}
	var b strings.Builder

	b.WriteString("== voyager-prof ==\n")
	if d.Run != nil {
		fmt.Fprintf(&b, "tool=%s mechanism=%s nodes=%d seed=%d",
			d.Run.Tool, d.Run.Mechanism, d.Run.Nodes, d.Run.Seed)
		if d.Run.FaultPlan != "" {
			fmt.Fprintf(&b, " faults=%q", d.Run.FaultPlan)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "sim_time=%s procs=%d proc_time=%s\n\n",
		fmtNs(d.SimNs), len(d.Procs), fmtNs(d.TotalNs))

	rows := d.flatten()

	// Top-N by self time.
	bySelf := make([]flatRow, 0, len(rows))
	for _, r := range rows {
		if r.self > 0 {
			bySelf = append(bySelf, r)
		}
	}
	sort.SliceStable(bySelf, func(i, j int) bool {
		if bySelf[i].self != bySelf[j].self {
			return bySelf[i].self > bySelf[j].self
		}
		return bySelf[i].path < bySelf[j].path
	})
	self := &stats.Table{
		Title:   fmt.Sprintf("top %d by self time", topN),
		Columns: []string{"self", "of-total", "busy", "wait", "frame"},
	}
	for i, r := range bySelf {
		if i >= topN {
			break
		}
		self.AddRow(fmtNs(r.self), stats.PctTenths(r.self, d.TotalNs),
			fmtNs(r.busy), fmtNs(r.cond+r.queue), trimPath(r.path, 72))
	}
	b.WriteString(self.String())
	b.WriteByte('\n')

	// Top-N by cumulative time, skipping the synthetic group roots (depth 1)
	// whose cumulative time is just their whole subtree.
	byCum := make([]flatRow, 0, len(rows))
	for _, r := range rows {
		if r.cum > 0 && strings.Contains(r.path, ";") {
			byCum = append(byCum, r)
		}
	}
	sort.SliceStable(byCum, func(i, j int) bool {
		if byCum[i].cum != byCum[j].cum {
			return byCum[i].cum > byCum[j].cum
		}
		return byCum[i].path < byCum[j].path
	})
	cum := &stats.Table{
		Title:   fmt.Sprintf("top %d by cumulative time", topN),
		Columns: []string{"cum", "of-total", "self", "frame"},
	}
	for i, r := range byCum {
		if i >= topN {
			break
		}
		cum.AddRow(fmtNs(r.cum), stats.PctTenths(r.cum, d.TotalNs), fmtNs(r.self),
			trimPath(r.path, 72))
	}
	b.WriteString(cum.String())
	b.WriteByte('\n')

	// Per-group occupancy: busy time as a share of the simulated run length.
	// One sequential processor (a firmware sP loop set serializes on the NIU)
	// reads as true occupancy; a group of concurrently blocked-and-overlapping
	// procs can exceed 100%.
	groups := d.groupTotals()
	occ := &stats.Table{
		Title:   "occupancy (busy time / sim time, per group)",
		Columns: []string{"group", "procs", "busy", "occupancy", "cond-wait", "queue-wait"},
	}
	for _, g := range groups {
		occ.AddRow(g.group, fmt.Sprintf("%d", g.procs), fmtNs(g.busy),
			stats.PctTenths(g.busy, d.SimNs), fmtNs(g.cond), fmtNs(g.queue))
	}
	b.WriteString(occ.String())
	b.WriteByte('\n')

	// Component rollups: the same buckets summed across nodes ("node*/comp").
	type compTotal struct {
		comp  string
		busy  int64
		cond  int64
		queue int64
		procs int
		nodes int
	}
	byComp := map[string]*compTotal{}
	for _, g := range groups {
		if g.node < 0 {
			continue
		}
		c := byComp[g.comp]
		if c == nil {
			c = &compTotal{comp: g.comp}
			byComp[g.comp] = c
		}
		c.busy += g.busy
		c.cond += g.cond
		c.queue += g.queue
		c.procs += g.procs
		c.nodes++
	}
	comps := make([]*compTotal, 0, len(byComp))
	for _, c := range byComp {
		comps = append(comps, c)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].comp < comps[j].comp })
	roll := &stats.Table{
		Title:   "component rollup (all nodes)",
		Columns: []string{"component", "nodes", "procs", "busy", "avg-occupancy", "cond-wait", "queue-wait"},
	}
	for _, c := range comps {
		roll.AddRow("node*/"+c.comp, fmt.Sprintf("%d", c.nodes),
			fmt.Sprintf("%d", c.procs), fmtNs(c.busy),
			stats.PctTenths(c.busy, d.SimNs*int64(c.nodes)), fmtNs(c.cond), fmtNs(c.queue))
	}
	b.WriteString(roll.String())

	_, err := io.WriteString(w, b.String())
	return err
}

// WriteDiff renders a deterministic self-time delta table between two
// profiles: the union of flattened paths, sorted by |delta| descending (ties
// by path), with paths present in only one profile treated as zero in the
// other. topN <= 0 means all changed rows.
func WriteDiff(w io.Writer, a, b *Doc, topN int) error {
	type delta struct {
		path    string
		oldSelf int64
		newSelf int64
	}
	merged := map[string]*delta{}
	for _, r := range a.flatten() {
		if r.self > 0 {
			merged[r.path] = &delta{path: r.path, oldSelf: r.self}
		}
	}
	for _, r := range b.flatten() {
		if r.self == 0 {
			continue
		}
		d := merged[r.path]
		if d == nil {
			d = &delta{path: r.path}
			merged[r.path] = d
		}
		d.newSelf = r.self
	}
	rows := make([]*delta, 0, len(merged))
	for _, d := range merged {
		if d.newSelf != d.oldSelf {
			rows = append(rows, d)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		di := rows[i].newSelf - rows[i].oldSelf
		dj := rows[j].newSelf - rows[j].oldSelf
		ai, aj := di, dj
		if ai < 0 {
			ai = -ai
		}
		if aj < 0 {
			aj = -aj
		}
		if ai != aj {
			return ai > aj
		}
		return rows[i].path < rows[j].path
	})

	var out strings.Builder
	out.WriteString("== voyager-prof diff ==\n")
	fmt.Fprintf(&out, "sim_time: %s -> %s   proc_time: %s -> %s\n\n",
		fmtNs(a.SimNs), fmtNs(b.SimNs), fmtNs(a.TotalNs), fmtNs(b.TotalNs))
	tbl := &stats.Table{
		Columns: []string{"delta", "old-self", "new-self", "frame"},
	}
	n := 0
	for _, d := range rows {
		if topN > 0 && n >= topN {
			break
		}
		diff := d.newSelf - d.oldSelf
		sign := "+"
		abs := diff
		if diff < 0 {
			sign = "-"
			abs = -diff
		}
		tbl.AddRow(sign+fmtNs(abs), fmtNs(d.oldSelf), fmtNs(d.newSelf),
			trimPath(d.path, 72))
		n++
	}
	out.WriteString(tbl.String())
	if len(rows) == 0 {
		out.WriteString("(no self-time differences)\n")
	}
	_, err := io.WriteString(w, out.String())
	return err
}
