package prof

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden files")

// synthRun drives a small synthetic workload covering every bucket and hook:
// busy time (Delay), cond waits, queue waits, pushed frames, a proc that
// finishes mid-run, and procs still blocked at the snapshot.
func synthRun() *Profiler {
	e := sim.NewEngine()
	pr := New()
	e.SetProfiler(pr)

	q := sim.NewQueue[int](e)
	c := sim.NewCond(e)
	c.SetName("ready")

	// Consumer: two queue pops with framed processing after each.
	e.SpawnOn(0, "sP", "", "consumer", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			v := q.Pop(p)
			e.ProfPush("handle")
			p.Delay(sim.Time(10 * (v + 1)))
			e.ProfPop()
		}
	})
	// Producer: staggered pushes, then a cond wait nobody signals (still
	// blocked at Finish).
	e.SpawnOn(0, "aP", "", "producer", func(p *sim.Proc) {
		p.Delay(100)
		q.Push(0)
		p.Delay(100)
		q.Push(1)
		c.Wait(p)
	})
	// Short-lived host proc: finishes well before the run ends.
	e.Spawn("ephemeral", func(p *sim.Proc) {
		p.Delay(50)
	})
	e.RunUntil(500)
	pr.Finish(e.Now())
	return pr
}

// TestTelescoping: every synthetic proc's buckets tile its lifetime
// exactly, and the run's totals line up across Doc fields.
func TestTelescoping(t *testing.T) {
	doc := synthRun().Doc(nil)
	if doc.SimNs != 500 {
		t.Fatalf("SimNs = %d, want 500", doc.SimNs)
	}
	var lifetimes int64
	for _, p := range doc.Procs {
		life := p.EndNs - p.SpawnNs
		if got := p.BusyNs + p.CondNs + p.QueueNs; got != life {
			t.Errorf("proc %s: busy %d + cond %d + queue %d != lifetime %d",
				p.Name, p.BusyNs, p.CondNs, p.QueueNs, life)
		}
		lifetimes += life
	}
	if lifetimes != doc.TotalNs {
		t.Errorf("TotalNs = %d, lifetimes sum to %d", doc.TotalNs, lifetimes)
	}

	byName := map[string]ProcEntry{}
	for _, p := range doc.Procs {
		byName[p.Name] = p
	}
	// Consumer: waits 100ns for the first item, handles it 10ns, waits 90ns
	// for the second, handles it 20ns, then returns at t=220.
	con := byName["consumer"]
	if con.QueueNs != 100+90 || con.BusyNs != 30 || con.EndNs != 220 || con.Live {
		t.Errorf("consumer buckets: busy=%d queue=%d end=%d live=%v",
			con.BusyNs, con.QueueNs, con.EndNs, con.Live)
	}
	// Producer: 200ns of delays, then cond-blocked to t=500.
	pro := byName["producer"]
	if pro.BusyNs != 200 || pro.CondNs != 300 || pro.QueueNs != 0 {
		t.Errorf("producer buckets: busy=%d cond=%d queue=%d", pro.BusyNs, pro.CondNs, pro.QueueNs)
	}
	// Ephemeral: done at t=50, lifetime all busy.
	eph := byName["ephemeral"]
	if eph.BusyNs != 50 || eph.EndNs != 50 || eph.Live || eph.Group != "host" {
		t.Errorf("ephemeral entry: %+v", eph)
	}
}

// TestFrameAttribution: framed busy time lands under the pushed frame, not
// the proc root.
func TestFrameAttribution(t *testing.T) {
	doc := synthRun().Doc(nil)
	var folded bytes.Buffer
	if err := doc.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	got := folded.String()
	for _, want := range []string{
		"node0/sP;consumer;handle 30\n",
		"node0/aP;producer 200\n",
		"node0/aP;producer;wait:ready 300\n",
		"host;ephemeral 50\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("folded output missing %q:\n%s", want, got)
		}
	}
}

// decodePprofTotal is a minimal protobuf reader: it sums the first value of
// every Sample in a pprof Profile message, independently of the encoder
// under test.
func decodePprofTotal(t *testing.T, data []byte) int64 {
	t.Helper()
	readVarint := func(b []byte, pos int) (uint64, int) {
		var v uint64
		var shift uint
		for {
			if pos >= len(b) {
				t.Fatal("pprof: truncated varint")
			}
			c := b[pos]
			pos++
			v |= uint64(c&0x7f) << shift
			if c < 0x80 {
				return v, pos
			}
			shift += 7
		}
	}
	var total int64
	pos := 0
	for pos < len(data) {
		key, next := readVarint(data, pos)
		pos = next
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			_, pos = readVarint(data, pos)
		case 2:
			ln, next := readVarint(data, pos)
			body := data[next : next+int(ln)]
			pos = next + int(ln)
			if field != 2 { // Profile.sample
				continue
			}
			// Inside Sample: field 2 is the packed value list.
			spos := 0
			for spos < len(body) {
				skey, snext := readVarint(body, spos)
				spos = snext
				sfield, swire := int(skey>>3), int(skey&7)
				if swire != 2 {
					t.Fatalf("pprof: unexpected wire type %d in Sample", swire)
				}
				sln, snext := readVarint(body, spos)
				inner := body[snext : snext+int(sln)]
				spos = snext + int(sln)
				if sfield == 2 {
					v, _ := readVarint(inner, 0)
					total += int64(v)
				}
			}
		default:
			t.Fatalf("pprof: unexpected wire type %d", wire)
		}
	}
	return total
}

// TestFormatTotalsAgree: the folded stacks, the pprof samples, and the JSON
// document all report the same total simulated time — they derive from one
// tree, and this pins that they stay that way.
func TestFormatTotalsAgree(t *testing.T) {
	doc := synthRun().Doc(nil)

	var folded bytes.Buffer
	if err := doc.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	var foldedTotal int64
	for _, line := range strings.Split(strings.TrimSuffix(folded.String(), "\n"), "\n") {
		var v int64
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("malformed folded line %q", line)
		}
		for _, c := range line[idx+1:] {
			v = v*10 + int64(c-'0')
		}
		foldedTotal += v
	}

	var pb bytes.Buffer
	if err := doc.WritePprof(&pb); err != nil {
		t.Fatal(err)
	}
	pprofTotal := decodePprofTotal(t, pb.Bytes())

	if foldedTotal != doc.TotalNs {
		t.Errorf("folded total %d != doc.TotalNs %d", foldedTotal, doc.TotalNs)
	}
	if pprofTotal != doc.TotalNs {
		t.Errorf("pprof total %d != doc.TotalNs %d", pprofTotal, doc.TotalNs)
	}
}

// TestJSONRoundTrip: WriteJSON then ReadDoc reproduces the document's
// export byte for byte.
func TestJSONRoundTrip(t *testing.T) {
	doc := synthRun().Doc(&stats.RunMeta{Tool: "test", Nodes: 1, SimTimeNs: 500})
	var a bytes.Buffer
	if err := doc.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadDoc(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := parsed.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("JSON round trip changed the document")
	}
	if _, err := ReadDoc(strings.NewReader(`{"schema":"bogus/v0"}`)); err == nil {
		t.Error("ReadDoc accepted an unknown schema")
	}
}

// TestReportGolden pins the report and diff renderings for the synthetic
// run (refresh with -update).
func TestReportGolden(t *testing.T) {
	doc := synthRun().Doc(&stats.RunMeta{Tool: "test", Mechanism: "synthetic",
		Nodes: 1, SimTimeNs: 500})
	var buf bytes.Buffer
	if err := doc.WriteReport(&buf, 5); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("\n")
	// Diff against a copy with one frame's self time inflated.
	mod := synthRun().Doc(nil)
	findFrame(t, mod.Tree, "node0/sP", "consumer", "handle").BusyNs += 40
	if err := WriteDiff(&buf, doc, mod, 5); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "report.golden", buf.Bytes())
}

// findFrame descends the export tree along the named frame path.
func findFrame(t *testing.T, ns []*TreeNode, path ...string) *TreeNode {
	t.Helper()
	var cur *TreeNode
	for _, name := range path {
		cur = nil
		for _, n := range ns {
			if n.Kind == "frame" && n.Name == name {
				cur = n
				break
			}
		}
		if cur == nil {
			t.Fatalf("frame path %v not found in tree", path)
		}
		ns = cur.Children
	}
	return cur
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from golden (run with -update to refresh):\n%s", name, got)
	}
}

// TestFinishTerminal: hooks after Finish are ignored, a second Finish is a
// no-op, and Doc before Finish panics.
func TestFinishTerminal(t *testing.T) {
	e := sim.NewEngine()
	pr := New()
	e.SetProfiler(pr)
	e.SpawnOn(0, "aP", "", "late", func(p *sim.Proc) {
		p.Delay(100)
		p.Delay(100)
	})
	e.RunUntil(50)
	pr.Finish(e.Now())
	doc1 := pr.Doc(nil)
	e.Run() // the proc resumes and finishes after the snapshot
	pr.Finish(e.Now())
	doc2 := pr.Doc(nil)
	var a, b bytes.Buffer
	if err := doc1.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := doc2.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("post-Finish activity changed the exported document")
	}

	defer func() {
		if recover() == nil {
			t.Error("Doc before Finish did not panic")
		}
	}()
	New().Doc(nil)
}

// TestReadDocProcTimes: a proc entry that breaks the telescoping law is a
// named parse error, not a negative occupancy in the rendered report, and
// the committed sample profile still loads.
func TestReadDocProcTimes(t *testing.T) {
	for _, proc := range []string{
		`{"name":"p","spawn_ns":100,"end_ns":0,"busy_ns":-100}`,
		`{"name":"p","spawn_ns":0,"end_ns":100,"busy_ns":-10,"cond_ns":110}`,
		`{"name":"p","spawn_ns":0,"end_ns":100,"busy_ns":50}`,
		`{"name":"p","spawn_ns":0,"end_ns":100,"busy_ns":60,"cond_ns":60,"queue_ns":-20}`,
		`{"name":"p","spawn_ns":-10,"end_ns":0,"busy_ns":10}`,
		`{"name":"p","spawn_ns":0,"end_ns":0,"busy_ns":9223372036854775807,"cond_ns":9223372036854775807,"queue_ns":2}`,
	} {
		doc := `{"schema":"voyager-prof/v1","procs":[` + proc + `]}`
		if _, err := ReadDoc(strings.NewReader(doc)); !errors.Is(err, ErrProcTimes) {
			t.Errorf("ReadDoc(%s) = %v, want ErrProcTimes", proc, err)
		}
	}
	ok := `{"schema":"voyager-prof/v1","procs":[{"name":"p","spawn_ns":5,"end_ns":105,"busy_ns":60,"cond_ns":30,"queue_ns":10}]}`
	if _, err := ReadDoc(strings.NewReader(ok)); err != nil {
		t.Errorf("ReadDoc(consistent proc) = %v", err)
	}
	if _, err := ReadDocFile(filepath.Join("..", "..", "PROF_sample.json")); err != nil {
		t.Errorf("committed sample: %v", err)
	}
}

// TestReadDocNullTreeNode: a null node anywhere in the tree is a named parse
// error, not a nil dereference when the tree is rendered.
func TestReadDocNullTreeNode(t *testing.T) {
	for _, doc := range []string{
		`{"schema":"voyager-prof/v1","tree":[null]}`,
		`{"schema":"voyager-prof/v1","tree":[{"name":"a","kind":"frame","children":[null]}]}`,
	} {
		if _, err := ReadDoc(strings.NewReader(doc)); !errors.Is(err, ErrNullTreeNode) {
			t.Errorf("ReadDoc(%s) = %v, want ErrNullTreeNode", doc, err)
		}
	}
}
