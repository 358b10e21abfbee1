package bench

import (
	"bytes"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/fault"
	"startvoyager/internal/prof"
	"startvoyager/internal/sim"
)

// The spin-wait exactness tests. A blocking NIU wait whose try is one
// uncached load keeps its Proc blocked across empty tries and re-issues the
// load from the bus completion; these tests hold it to the run the plain
// loop of tries produces. Every run attaches the trace ring, the profiler,
// a 2 µs series sampler and the metrics registry, and the program writes a
// delivery log; all seven exports must match byte for byte.

var updateSpinGoldens = flag.Bool("update-spin-goldens", false,
	"rewrite internal/bench/testdata/spin/ from the current code")

// spinExportNames lists a spin run's exports in comparison order.
var spinExportNames = []string{"trace.json", "metrics.json", "series.json", "prof.json", "prof.folded", "hooks.txt", "delivery.log"}

// deliveryLog records what each wait returned, and when.
type deliveryLog struct{ bytes.Buffer }

func (l *deliveryLog) recv(p *sim.Proc, what string, src int, payload []byte, err error) {
	fmt.Fprintf(&l.Buffer, "%d %s %s src=%d payload=%x err=%v\n", int64(p.Now()), p.Name(), what, src, payload, err)
}

func (l *deliveryLog) note(p *sim.Proc, what string, err error) {
	fmt.Fprintf(&l.Buffer, "%d %s %s err=%v\n", int64(p.Now()), p.Name(), what, err)
}

// hookTally forwards every profiler callback to the profiler and folds it,
// with its time and proc, into a digest: the aggregated profile exports
// cannot show the callback sequence itself (one ProcResume/ProcBlock pair
// per empty try, frames pushed on the right proc).
type hookTally struct {
	*prof.Profiler
	h                                    hash.Hash64
	start, resume, block, end, push, pop int
}

func (t *hookTally) note(n *int, format string, args ...any) {
	*n++
	fmt.Fprintf(t.h, format+"\n", args...)
}

func (t *hookTally) ProcStart(at sim.Time, p *sim.Proc) {
	t.note(&t.start, "start %d %s", at, p.Name())
	t.Profiler.ProcStart(at, p)
}

func (t *hookTally) ProcResume(at sim.Time, p *sim.Proc) {
	t.note(&t.resume, "resume %d %s", at, p.Name())
	t.Profiler.ProcResume(at, p)
}

func (t *hookTally) ProcBlock(at sim.Time, p *sim.Proc, k sim.BlockKind, label string) {
	t.note(&t.block, "block %d %s %d %s", at, p.Name(), k, label)
	t.Profiler.ProcBlock(at, p, k, label)
}

func (t *hookTally) ProcEnd(at sim.Time, p *sim.Proc) {
	t.note(&t.end, "end %d %s", at, p.Name())
	t.Profiler.ProcEnd(at, p)
}

func (t *hookTally) FramePush(p *sim.Proc, name string) {
	t.note(&t.push, "push %d %s %s", p.Now(), p.Name(), name)
	t.Profiler.FramePush(p, name)
}

func (t *hookTally) FramePop(p *sim.Proc) {
	t.note(&t.pop, "pop %d %s", p.Now(), p.Name())
	t.Profiler.FramePop(p)
}

func (t *hookTally) WriteTo(b *bytes.Buffer) error {
	_, err := fmt.Fprintf(b, "start=%d resume=%d block=%d end=%d push=%d pop=%d fnv64a=%016x\n",
		t.start, t.resume, t.block, t.end, t.push, t.pop, t.h.Sum64())
	return err
}

// spinRun builds a 4-node machine under faults ("" for none), attaches every
// instrument in Artifacts.Start's order, runs program to completion and
// returns the exports keyed by spinExportNames.
func spinRun(t *testing.T, faults string, program func(m *core.Machine, lg *deliveryLog)) map[string][]byte {
	t.Helper()
	cfg := cluster.DefaultConfig(4)
	if faults != "" {
		plan, err := fault.ParsePlan(faults)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", faults, err)
		}
		cfg.Faults = plan
	}
	hooks := &hookTally{Profiler: prof.New(), h: fnv.New64a()}
	profiler := hooks.Profiler
	cfg.Profiler = hooks
	m := core.NewMachineConfig(cfg)
	tb := m.Trace(1 << 20)
	sampler := m.Series(2 * sim.Microsecond)
	var lg deliveryLog
	program(m, &lg)
	// At most 20M events, a livelock guard; Run then finds the queue empty
	// and only stops the parked coroutines.
	for n := 0; n < 20_000_000 && m.Eng.Step(); n++ {
	}
	if m.Eng.Pending() > 0 {
		t.Fatal("run did not drain within 20M events")
	}
	m.Eng.Run()
	// Firmware service loops block forever on their queues; an application
	// proc ("ap<node>-<name>") must not.
	for _, b := range m.Eng.Stalled(sim.StallDeadlock, 0, 0).Blocked {
		if strings.HasPrefix(b.Proc, "ap") {
			t.Fatalf("application proc %s still blocked at %s", b.Proc, b.Where)
		}
	}
	now := m.Eng.Now()
	sampler.Finish()
	profiler.Finish(now)
	if d := tb.Stats().Dropped; d > 0 {
		t.Fatalf("trace ring dropped %d events; raise its capacity", d)
	}
	doc := profiler.Doc(nil)
	out := map[string][]byte{}
	for name, write := range map[string]func(*bytes.Buffer) error{
		"trace.json":   func(b *bytes.Buffer) error { return tb.WritePerfetto(b) },
		"metrics.json": func(b *bytes.Buffer) error { return m.Metrics().WriteJSON(b, now) },
		"series.json":  func(b *bytes.Buffer) error { return sampler.WriteJSON(b, nil) },
		"prof.json":    func(b *bytes.Buffer) error { return doc.WriteJSON(b) },
		"prof.folded":  func(b *bytes.Buffer) error { return doc.WriteFolded(b) },
		"hooks.txt":    hooks.WriteTo,
	} {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = b.Bytes()
	}
	out["delivery.log"] = lg.Bytes()
	return out
}

// compareExports reports every export of got that differs from want.
func compareExports(t *testing.T, what string, want, got map[string][]byte) {
	t.Helper()
	for _, name := range spinExportNames {
		w, g := want[name], got[name]
		if bytes.Equal(w, g) {
			continue
		}
		i := 0
		for i < len(w) && i < len(g) && w[i] == g[i] {
			i++
		}
		t.Errorf("%s: %s differs at byte %d (%d vs %d bytes):\n want …%s…\n  got …%s…",
			what, name, i, len(w), len(g), excerpt(w, i), excerpt(g, i))
	}
}

func excerpt(b []byte, at int) []byte {
	lo, hi := max(0, at-60), min(len(b), at+60)
	return b[lo:hi]
}

// tryLoop loops try until it hits or timeout (negative: never) has elapsed,
// checking the deadline after each empty try: the loop every blocking wait
// is specified against.
func tryLoop(p *sim.Proc, op string, timeout sim.Time, try func() bool) error {
	deadline := p.Now() + timeout
	for !try() {
		if timeout >= 0 && p.Now() >= deadline {
			return &core.TimeoutError{Op: op, Timeout: timeout}
		}
	}
	return nil
}

// paced sends count messages from each of the given nodes to node 0, one
// Compute(gap·node) apart, through send.
func paced(m *core.Machine, nodes []int, count int, gap sim.Time,
	send func(p *sim.Proc, a *core.API, k int)) {
	for _, n := range nodes {
		m.Go(n, "src", func(p *sim.Proc, a *core.API) {
			for k := 0; k < count; k++ {
				a.Compute(p, gap*sim.Time(n))
				send(p, a, k)
			}
		})
	}
}

// spinTwins are the waits with a same-named Try variant: each program runs
// once with the blocking wait (blocking true) and once with the Try loop.
var spinTwins = []struct {
	name, faults string
	program      func(m *core.Machine, lg *deliveryLog, blocking bool)
}{
	{"RecvBasic", "", func(m *core.Machine, lg *deliveryLog, blocking bool) {
		paced(m, []int{1, 2, 3}, 4, 3*sim.Microsecond, func(p *sim.Proc, a *core.API, k int) {
			a.SendBasic(p, 0, []byte{byte(a.NodeID()), byte(k)})
		})
		m.Go(0, "sink", func(p *sim.Proc, a *core.API) {
			for range 12 {
				src, pl := recvBasic(p, a, blocking)
				lg.recv(p, "RecvBasic", src, pl, nil)
			}
		})
	}},
	{"RecvBasicTimeout", "", func(m *core.Machine, lg *deliveryLog, blocking bool) {
		paced(m, []int{1, 2}, 3, 5*sim.Microsecond, func(p *sim.Proc, a *core.API, k int) {
			a.SendBasic(p, 0, []byte{byte(a.NodeID()), byte(k)})
		})
		m.Go(0, "sink", func(p *sim.Proc, a *core.API) {
			for got := 0; got < 6; {
				var src int
				var pl []byte
				var err error
				const bound = 2 * sim.Microsecond
				if blocking {
					src, pl, err = a.RecvBasicTimeout(p, bound)
				} else {
					err = tryLoop(p, "RecvBasic", bound, func() (ok bool) {
						src, pl, ok = a.TryRecvBasic(p)
						return ok
					})
				}
				lg.recv(p, "RecvBasicTimeout", src, pl, err)
				if err == nil {
					got++
				}
			}
		})
	}},
	{"RecvExpress", "", func(m *core.Machine, lg *deliveryLog, blocking bool) {
		paced(m, []int{1, 2, 3}, 3, 4*sim.Microsecond, func(p *sim.Proc, a *core.API, k int) {
			a.SendExpress(p, 0, []byte{byte(a.NodeID()), byte(k), 0xee})
		})
		m.Go(0, "sink", func(p *sim.Proc, a *core.API) {
			for range 9 {
				var src int
				var pl [core.MaxExpressPayload]byte
				if blocking {
					src, pl = a.RecvExpress(p)
				} else {
					tryLoop(p, "RecvExpress", -1, func() (ok bool) {
						src, pl, ok = a.TryRecvExpress(p)
						return ok
					})
				}
				lg.recv(p, "RecvExpress", src, pl[:], nil)
			}
		})
	}},
	{"Channel.Recv", "", func(m *core.Machine, lg *deliveryLog, blocking bool) {
		sink := m.API(0).OpenChannel(1, []int{1, 2, 3})
		chans := map[int]*core.Channel{}
		for n := 1; n < 4; n++ {
			chans[n] = m.API(n).OpenChannel(1, []int{0})
		}
		paced(m, []int{1, 2, 3}, 3, 3*sim.Microsecond, func(p *sim.Proc, a *core.API, k int) {
			err := chans[a.NodeID()].Send(p, 0, []byte{byte(a.NodeID()), byte(k)})
			lg.note(p, "Channel.Send", err)
		})
		m.Go(0, "sink", func(p *sim.Proc, a *core.API) {
			for range 9 {
				var src int
				var pl []byte
				if blocking {
					src, pl = sink.Recv(p)
				} else {
					tryLoop(p, "Channel.Recv", -1, func() (ok bool) {
						src, pl, ok = sink.TryRecv(p)
						return ok
					})
				}
				lg.recv(p, "Channel.Recv", src, pl, nil)
			}
		})
	}},
	{"RecvReliable", "seed=7,drop=0.05", func(m *core.Machine, lg *deliveryLog, blocking bool) {
		paced(m, []int{1, 2, 3}, 4, 2*sim.Microsecond, func(p *sim.Proc, a *core.API, k int) {
			err := a.SendReliable(p, 0, []byte{byte(a.NodeID()), byte(k)})
			lg.note(p, "SendReliable", err)
		})
		m.Go(0, "sink", func(p *sim.Proc, a *core.API) {
			for range 12 {
				var src int
				var pl []byte
				if blocking {
					src, pl = a.RecvReliable(p)
				} else {
					tryLoop(p, "RecvReliable", -1, func() (ok bool) {
						src, pl, ok = a.TryRecvReliable(p)
						return ok
					})
				}
				lg.recv(p, "RecvReliable", src, pl, nil)
			}
		})
	}},
	{"TimeShared", "", func(m *core.Machine, lg *deliveryLog, blocking bool) {
		// Node 0's aP is time-shared: "work" sends and computes while
		// "sink" spins, so the two share one occupancy bracket depth.
		paced(m, []int{1, 2}, 3, 4*sim.Microsecond, func(p *sim.Proc, a *core.API, k int) {
			a.SendBasic(p, 0, []byte{byte(a.NodeID()), byte(k)})
		})
		m.Go(0, "sink", func(p *sim.Proc, a *core.API) {
			for range 6 {
				src, pl := recvBasic(p, a, blocking)
				lg.recv(p, "RecvBasic", src, pl, nil)
			}
		})
		m.Go(0, "work", func(p *sim.Proc, a *core.API) {
			for k := range 4 {
				a.SendBasic(p, 3, []byte{0xaa, byte(k)})
				a.Compute(p, 1500*sim.Nanosecond)
			}
		})
		m.Go(3, "peer", func(p *sim.Proc, a *core.API) {
			for range 4 {
				src, pl := recvBasic(p, a, blocking)
				lg.recv(p, "RecvBasic", src, pl, nil)
			}
		})
	}},
}

// recvBasic is RecvBasic, or its Try loop.
func recvBasic(p *sim.Proc, a *core.API, blocking bool) (src int, pl []byte) {
	if blocking {
		return a.RecvBasic(p)
	}
	tryLoop(p, "RecvBasic", -1, func() (ok bool) {
		src, pl, ok = a.TryRecvBasic(p)
		return ok
	})
	return src, pl
}

// TestSpinWaitMatchesTryLoop: each blocking wait with a same-named Try
// variant produces the same trace, metrics, series, profile and delivery
// log as the loop over that Try variant.
func TestSpinWaitMatchesTryLoop(t *testing.T) {
	for _, tc := range spinTwins {
		t.Run(tc.name, func(t *testing.T) {
			loop := spinRun(t, tc.faults, func(m *core.Machine, lg *deliveryLog) { tc.program(m, lg, false) })
			wait := spinRun(t, tc.faults, func(m *core.Machine, lg *deliveryLog) { tc.program(m, lg, true) })
			if len(loop["delivery.log"]) == 0 {
				t.Fatal("program logged nothing")
			}
			compareExports(t, "blocking wait vs Try loop", loop, wait)
		})
	}
}

// spinGoldens are the waits with no same-named Try variant; their exports
// are pinned by files under testdata/spin/ instead.
var spinGoldens = []struct {
	name    string
	program func(m *core.Machine, lg *deliveryLog)
}{
	{"RecvNotify", func(m *core.Machine, lg *deliveryLog) {
		m.Go(1, "src", func(p *sim.Proc, a *core.API) {
			for k := range 2 {
				a.Compute(p, 6*sim.Microsecond)
				a.DmaPush(p, 0, 0x10_0000, 0x20_0000+uint32(k)*0x1000, 256, uint32(k+1))
			}
		})
		m.Go(0, "sink", func(p *sim.Proc, a *core.API) {
			src, pl, err := a.RecvNotifyTimeout(p, 3*sim.Microsecond)
			lg.recv(p, "RecvNotifyTimeout", src, pl, err)
			for range 2 {
				src, pl := a.RecvNotify(p)
				lg.recv(p, "RecvNotify", src, pl, nil)
			}
		})
	}},
	{"waitTxSpace", func(m *core.Machine, lg *deliveryLog) {
		// Node 0 stops receiving while node 1 sends a burst, so node 1's
		// transmit queue fills and SendBasic polls for a free slot.
		const burst = 48
		m.Go(1, "src", func(p *sim.Proc, a *core.API) {
			for k := range burst {
				a.SendBasic(p, 0, []byte{byte(k)})
				lg.note(p, fmt.Sprintf("SendBasic#%d", k), nil)
			}
		})
		m.Go(0, "sink", func(p *sim.Proc, a *core.API) {
			a.Compute(p, 20*sim.Microsecond)
			for range burst {
				src, pl := a.RecvBasic(p)
				lg.recv(p, "RecvBasic", src, pl, nil)
			}
		})
	}},
	{"Channel.Send", func(m *core.Machine, lg *deliveryLog) {
		// Node 1 receives late, so node 0's sends wait on a backed-up
		// queue; then a send to the forbidden node 2 shuts the queue down
		// while its Send is waiting, and a later send fails at once.
		const sends = 20
		ch := m.API(0).OpenChannel(1, []int{1})
		peer := m.API(1).OpenChannel(1, []int{0})
		m.Go(0, "src", func(p *sim.Proc, a *core.API) {
			for k := range sends {
				lg.note(p, fmt.Sprintf("Channel.Send#%d", k), ch.Send(p, 1, []byte{byte(k)}))
			}
			lg.note(p, "Channel.Send(forbidden)", ch.Send(p, 2, []byte("sneak")))
			lg.note(p, "Channel.Send(after)", ch.Send(p, 1, []byte("late")))
		})
		m.Go(1, "sink", func(p *sim.Proc, a *core.API) {
			a.Compute(p, 15*sim.Microsecond)
			for range sends {
				src, pl := peer.Recv(p)
				lg.recv(p, "Channel.Recv", src, pl, nil)
			}
		})
	}},
}

// TestSpinWaitGoldens: the waits with no same-named Try variant reproduce
// the exports recorded from the per-try resuming implementation they
// replaced (testdata/spin/<wait>.<export>). Channel.Send's trace, metrics
// and series were re-recorded twice: once channel messages carried trace
// tags, and once a protection violation ended its message's chain with a
// msg-drop. Each time the trace gained only those instants and their flow
// events, and the metrics and series only the trace/captured count.
func TestSpinWaitGoldens(t *testing.T) {
	for _, tc := range spinGoldens {
		t.Run(tc.name, func(t *testing.T) {
			got := spinRun(t, "", tc.program)
			path := func(export string) string {
				return filepath.Join("testdata", "spin", tc.name+"."+export)
			}
			if *updateSpinGoldens {
				for _, name := range spinExportNames {
					if err := os.WriteFile(path(name), got[name], 0o644); err != nil {
						t.Fatal(err)
					}
				}
				return
			}
			want := map[string][]byte{}
			for _, name := range spinExportNames {
				b, err := os.ReadFile(path(name))
				if err != nil {
					t.Fatal(err)
				}
				want[name] = b
			}
			compareExports(t, "golden vs run", want, got)
		})
	}
}
