// Package firmware models the service processor (sP) — the embedded 604
// that executes NIU firmware — together with the default firmware services:
// the miss/overflow queue servicer, the DMA engine, and the NUMA and S-COMA
// shared-memory protocols.
//
// The sP is a serialized execution resource: every firmware activity
// occupies it for a modeled duration, so experiments can measure firmware
// occupancy — the quantity the paper identifies as "extremely important"
// when comparing mechanism implementations. Waiting for hardware (command
// completions, bus operations) does not hold the sP.
package firmware

import (
	"fmt"

	"startvoyager/internal/arctic"
	"startvoyager/internal/niu/biu"
	"startvoyager/internal/niu/ctrl"
	"startvoyager/internal/niu/txrx"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// Costs models sP occupancy per firmware activity.
type Costs struct {
	Dispatch sim.Time // interrupt entry / queue poll
	Handler  sim.Time // base handler body
	PerByte  sim.Time // per payload byte touched by the sP
	CmdIssue sim.Time // issuing one CTRL command
}

// DefaultCosts returns occupancy numbers for an unoptimized 604 firmware,
// matching the paper's caveat that its measurements use "very general and
// unoptimized" code.
func DefaultCosts() Costs {
	return Costs{Dispatch: 300 * sim.Nanosecond, Handler: 250 * sim.Nanosecond,
		PerByte: 4 * sim.Nanosecond, CmdIssue: 150 * sim.Nanosecond}
}

// Handler processes one service message delivered to the sP service queue.
type Handler func(p *sim.Proc, src uint16, payload []byte)

// MissHandler processes a message that fell into the miss/overflow queue.
type MissHandler func(p *sim.Proc, src uint16, logicalQ uint16, payload []byte)

// CaptureHandler processes a bus operation forwarded by the aBIU.
type CaptureHandler func(p *sim.Proc, op biu.CapturedOp)

// Engine is one node's firmware execution engine.
type Engine struct {
	sim   *sim.Engine
	node  int
	sb    *biu.SBIU
	ctrl  *ctrl.Ctrl
	res   *sim.Resource
	costs Costs

	handlers   map[byte]Handler
	missH      MissHandler
	scomaCap   CaptureHandler
	numaCap    CaptureHandler
	reflectCap CaptureHandler
	rxNotify   *sim.Queue[int]
	protNotify *sim.Queue[int]
	started    bool

	// curMsg is the trace tag of the message whose handler is currently
	// executing (zero outside handler context). Handlers run one at a time
	// on the msgLoop, so services read it synchronously to link the messages
	// they originate back to their cause; work they defer to other procs
	// (DMA pushes, retransmit timers) must capture it at handler time.
	curMsg sim.MsgTag

	// svcFree recycles the records of service sends (SendSvcTagged).
	svcFree []*svcSend

	stats Stats
}

// Stats counts firmware activity.
type Stats struct {
	Messages   uint64
	MissServed uint64
	Captures   uint64
	ProtViols  uint64
}

// New creates the firmware engine for a node. Messages in an interrupting
// receive queue are dispatched to registered handlers, except those in
// ctrl.MissQueue, which the miss handler drains.
func New(s *sim.Engine, node int, sb *biu.SBIU, costs Costs) *Engine {
	e := &Engine{
		sim: s, node: node, sb: sb, ctrl: sb.Ctrl(), costs: costs,
		res:        sim.NewResource(s, fmt.Sprintf("sp%d", node)),
		handlers:   make(map[byte]Handler),
		rxNotify:   sim.NewQueue[int](s),
		protNotify: sim.NewQueue[int](s),
	}
	e.res.Observe(node, "sP")
	e.rxNotify.Observe(node, "fw", "rx-int-pending")
	e.protNotify.Observe(node, "fw", "prot-pending")
	return e
}

// Ctrl returns the immediate CTRL interface.
//
//voyager:noalloc
func (e *Engine) Ctrl() *ctrl.Ctrl { return e.ctrl }

// ABIU returns the node's aBIU.
//
//voyager:noalloc
func (e *Engine) ABIU() *biu.ABIU { return e.sb.ABIU() }

// Costs returns the occupancy model.
func (e *Engine) Costs() Costs { return e.costs }

// Stats returns a snapshot of counters.
func (e *Engine) Stats() Stats { return e.stats }

// BusyTime returns accumulated sP occupancy.
func (e *Engine) BusyTime() sim.Time { return e.res.BusyTime() }

// IdleTime returns accumulated sP idle time — the complement of BusyTime
// over the run so far, so occupancy is computable from either.
func (e *Engine) IdleTime() sim.Time { return e.sim.Now() - e.res.BusyTime() }

// engineMetrics is the firmware engine's metric table.
var engineMetrics = stats.NewMetrics(
	stats.GaugeOf("messages", func(e *Engine) int64 { return int64(e.stats.Messages) }),
	stats.GaugeOf("miss_served", func(e *Engine) int64 { return int64(e.stats.MissServed) }),
	stats.GaugeOf("captures", func(e *Engine) int64 { return int64(e.stats.Captures) }),
	stats.GaugeOf("prot_viols", func(e *Engine) int64 { return int64(e.stats.ProtViols) }),
	stats.TimeOf("sp_busy", (*Engine).BusyTime),
	stats.TimeOf("sp_idle", (*Engine).IdleTime),
)

// RegisterMetrics registers the firmware engine's counters under r.
func (e *Engine) RegisterMetrics(r *stats.Registry) { engineMetrics.Register(r, e) }

// Register installs h for service id svc (the first payload byte).
func (e *Engine) Register(svc byte, h Handler) {
	if _, dup := e.handlers[svc]; dup {
		panic(fmt.Sprintf("firmware: node %d: duplicate service %#x", e.node, svc))
	}
	e.handlers[svc] = h
}

// SetMissHandler installs the miss/overflow queue servicer.
func (e *Engine) SetMissHandler(h MissHandler) { e.missH = h }

// SetScomaCapture installs the S-COMA captured-op handler.
func (e *Engine) SetScomaCapture(h CaptureHandler) { e.scomaCap = h }

// SetNumaCapture installs the NUMA captured-op handler.
func (e *Engine) SetNumaCapture(h CaptureHandler) { e.numaCap = h }

// SetReflectCapture installs the reflective-memory captured-write handler.
func (e *Engine) SetReflectCapture(h CaptureHandler) { e.reflectCap = h }

// RxInterrupt implements ctrl.IntPort.
func (e *Engine) RxInterrupt(q int) { e.rxNotify.Push(q) }

// ProtViolation implements ctrl.IntPort.
func (e *Engine) ProtViolation(q int) { e.protNotify.Push(q) }

// Occupy charges d of sP time to the calling firmware activity.
//
//voyager:noalloc
func (e *Engine) Occupy(p *sim.Proc, d sim.Time) { e.res.UseP(p, d) }

// Go runs fn as an asynchronous firmware continuation (its occupancy charges
// are made through Occupy as usual).
func (e *Engine) Go(name string, fn func(p *sim.Proc)) {
	e.sim.SpawnOn(e.node, "sP", "fw", name, fn)
}

// IssueCommand charges command-issue occupancy and enqueues cmd on CTRL
// local command queue q.
//
//voyager:noalloc
func (e *Engine) IssueCommand(p *sim.Proc, q int, cmd ctrl.Command) {
	e.Occupy(p, e.costs.CmdIssue)
	e.ctrl.IssueCommand(q, cmd)
}

// Start spawns the firmware loops. Call once, after all registration.
func (e *Engine) Start() {
	if e.started {
		panic("firmware: double start")
	}
	e.started = true
	e.Go("msgloop", e.msgLoop)
	e.Go("caploop", e.captureLoop)
	e.Go("protloop", e.protLoop)
}

// msgLoop drains interrupt-enabled receive queues and dispatches messages.
func (e *Engine) msgLoop(p *sim.Proc) {
	c := e.Ctrl()
	for {
		q := e.rxNotify.Pop(p)
		e.Occupy(p, e.costs.Dispatch)
		for c.RxProducer(q) != c.RxConsumer(q) {
			ptr := c.RxConsumer(q)
			src, logical, payload := c.ReadRxSlot(q, ptr)
			tag := c.RxTag(q, ptr)
			// The sP reads the message header; handlers moving bulk payload
			// through their own hands charge PerByte themselves (the whole
			// point of TagOn and command-queue data movement is that they
			// usually do not).
			hdr := len(payload)
			if hdr > 16 {
				hdr = 16
			}
			e.Occupy(p, e.costs.Handler+sim.Time(hdr)*e.costs.PerByte)
			c.RxConsumerUpdate(q, ptr+1)
			// The sP dispatch is the terminal causal stage for messages it
			// consumes; derived messages the handler originates link back
			// through curMsg.
			e.sim.MsgInstant(e.node, "fw", "msg-consume", tag, sim.Int("rxq", q))
			e.curMsg = tag
			// One span per handled message on the node's "fw" track. Only
			// this loop opens "fw" spans, so they never overlap (the other
			// loops emit instants); sP occupancy itself is traced by the
			// observed sp resource on the "sP" track.
			switch {
			case q == ctrl.MissQueue:
				e.stats.MissServed++
				if e.missH != nil {
					span := e.handlerSpan("miss", src)
					e.sim.ProfPush("miss")
					e.missH(p, src, logical, payload)
					e.sim.ProfPop()
					span.End()
				}
			default:
				e.stats.Messages++
				span := e.handlerSpan("svc", src)
				e.dispatch(p, src, payload)
				span.End()
			}
			e.curMsg = sim.MsgTag{}
		}
	}
}

// handlerSpan opens a dispatch span on the "fw" track (inert when tracing
// is off).
func (e *Engine) handlerSpan(name string, src uint16) sim.Span {
	if !e.sim.Observed() {
		return sim.Span{}
	}
	return e.sim.BeginSpan(e.node, "fw", name, sim.Int("src", int(src)))
}

func (e *Engine) dispatch(p *sim.Proc, src uint16, payload []byte) {
	if len(payload) == 0 {
		return
	}
	h := e.handlers[payload[0]]
	if h == nil {
		panic(fmt.Sprintf("firmware: node %d: no handler for service %#x", e.node, payload[0]))
	}
	e.sim.ProfPush(SvcName(payload[0]))
	h(p, src, payload[1:])
	e.sim.ProfPop()
}

// captureLoop serves bus operations forwarded from the aBIU.
func (e *Engine) captureLoop(p *sim.Proc) {
	q := e.sb.Captured()
	for {
		op := q.Pop(p)
		e.stats.Captures++
		if e.sim.Observed() {
			kind := "numa"
			if op.Reflect {
				kind = "reflect"
			} else if op.Scoma {
				kind = "scoma"
			}
			e.sim.Instant(e.node, "fw", "capture", sim.Str("kind", kind))
		}
		e.Occupy(p, e.costs.Dispatch)
		switch {
		case op.Reflect:
			if e.reflectCap == nil {
				panic(fmt.Sprintf("firmware: node %d: reflect capture with no service", e.node))
			}
			e.sim.ProfPush("capture-reflect")
			e.reflectCap(p, op)
			e.sim.ProfPop()
		case op.Scoma:
			if e.scomaCap == nil {
				panic(fmt.Sprintf("firmware: node %d: S-COMA capture with no protocol", e.node))
			}
			e.sim.ProfPush("capture-scoma")
			e.scomaCap(p, op)
			e.sim.ProfPop()
		default:
			if e.numaCap == nil {
				panic(fmt.Sprintf("firmware: node %d: NUMA capture with no protocol", e.node))
			}
			e.sim.ProfPush("capture-numa")
			e.numaCap(p, op)
			e.sim.ProfPop()
		}
	}
}

// protLoop takes protection-violation interrupts: it counts and traces each
// one and charges the sP its dispatch. The queue stays shut down until its
// owner re-enables it (ctrl.SetTxEnabled, as core.Channel.Reenable does).
func (e *Engine) protLoop(p *sim.Proc) {
	for {
		q := e.protNotify.Pop(p)
		e.stats.ProtViols++
		e.sim.Instant(e.node, "fw", "prot-viol", sim.Int("q", q))
		e.Occupy(p, e.costs.Dispatch)
	}
}

// CurMsgID returns the trace id of the message whose handler is currently
// executing (0 outside handler context). Services that defer work to spawned
// procs capture it at handler time to parent the messages that work emits.
func (e *Engine) CurMsgID() uint64 { return e.curMsg.ID }

// SendSvc issues a service message (svc id + body) to destNode's service
// queue via a CTRL SendMsg command. Protocol replies use the high-priority
// network lane to stay deadlock-free; requests use the low lane. The new
// message's trace context links back to the message being handled; callers
// outside handler context (retransmit timers) use SendSvcTagged.
//
//voyager:noalloc
func (e *Engine) SendSvc(p *sim.Proc, destNode int, svc byte, body []byte,
	pri arctic.Priority, done func()) {
	e.SendSvcTagged(p, destNode, svc, body, pri, sim.MsgTag{Parent: e.curMsg.ID}, done)
}

// SendSvcTagged is SendSvc with an explicit trace context: a zero-ID tag is
// allocated a fresh message id at launch, while a tagged one (reliable
// retransmissions) keeps its identity across attempts. The command, its
// frame and the payload (svc then body, copied) live in a pooled record,
// recycled when the command completes.
//
//voyager:noalloc
func (e *Engine) SendSvcTagged(p *sim.Proc, destNode int, svc byte, body []byte,
	pri arctic.Priority, tag sim.MsgTag, done func()) {
	s := e.svcGet()
	pl := append(s.frame.Payload[:0], svc)
	s.frame = txrx.Frame{Kind: txrx.Data, LogicalQ: SvcLogicalQ,
		Payload: append(pl[:1], body...), Trace: tag}
	s.msg = ctrl.SendMsg{Base: ctrl.Base{Done: s.doneFn}, Frame: &s.frame,
		Dest: uint16(destNode), Priority: pri}
	s.done = done
	e.IssueCommand(p, 0, &s.msg)
}

// svcSend is one service send in flight: the SendMsg command CTRL runs, the
// frame it carries and the caller's completion callback.
type svcSend struct {
	e      *Engine
	msg    ctrl.SendMsg
	frame  txrx.Frame
	done   func()
	doneFn func()
}

// svcGet returns a recycled (or new) service-send record.
//
//voyager:noalloc
func (e *Engine) svcGet() *svcSend {
	if n := len(e.svcFree); n > 0 {
		s := e.svcFree[n-1]
		e.svcFree = e.svcFree[:n-1]
		return s
	}
	s := &svcSend{e: e}   //voyager:alloc-ok(pool warm-up; recycled thereafter)
	s.doneFn = s.complete //voyager:alloc-ok(one-time method binding for the pooled record)
	return s
}

// complete is the send's command completion: CTRL has injected the frame,
// so the record goes back to the pool before the caller's callback runs.
//
//voyager:noalloc
func (s *svcSend) complete() {
	e, done := s.e, s.done
	s.done = nil
	s.msg = ctrl.SendMsg{}
	e.svcFree = append(e.svcFree, s) //voyager:alloc-ok(amortized: pool backing array is retained)
	if done != nil {
		done()
	}
}
