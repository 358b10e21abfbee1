package firmware

import (
	"encoding/binary"
	"fmt"

	"startvoyager/internal/arctic"
	"startvoyager/internal/bus"
	"startvoyager/internal/niu/biu"
	"startvoyager/internal/niu/ctrl"
	"startvoyager/internal/niu/sram"
	"startvoyager/internal/niu/txrx"
	"startvoyager/internal/sim"
)

// ScomaConfig describes the S-COMA shared space. Every node maps the same
// global window; each node's DRAM frames behind the window act as its L3
// cache (clsSRAM holds the per-line state). Pages are interleaved across
// home nodes; the home keeps the directory entry and a backing copy of each
// of its lines at BackingBase in its local DRAM.
type ScomaConfig struct {
	Window      bus.Range
	BackingBase uint32
	NumNodes    int
	// Migratory enables the classic migratory-sharing optimization: once a
	// line shows a read-then-upgrade pattern, subsequent read misses are
	// granted exclusively, eliminating the upgrade round trip. A protocol
	// variant selectable per machine — the experimentation the platform is
	// for.
	Migratory bool
}

// dirState is the home directory state of one line.
type dirState uint8

const (
	dirUncached dirState = iota
	dirShared
	dirExcl
)

type dirReq struct {
	node  int
	wantX bool
	evict bool // release the requester's copy instead of granting one
}

// dirEntry is the home's record of one line. Step records hold it across
// the steps of a transaction, so an entry never moves once built.
type dirEntry struct {
	// sharers lists the nodes holding a read-only copy in ascending order,
	// the order invalidations go out in; it is reset in place, keeping its
	// storage.
	sharers []int
	waiting []dirReq
	cur     dirReq
	owner   int

	pendingInvals int

	// Migratory detection: a reader that promptly upgrades marks the line.
	lastReader int

	state     dirState
	busy      bool
	migratory bool
}

// sharerIndex returns where node n is, or belongs, in the sharer list, and
// whether it is there.
//
//voyager:noalloc
func (e *dirEntry) sharerIndex(n int) (int, bool) {
	i := 0
	for i < len(e.sharers) && e.sharers[i] < n {
		i++
	}
	return i, i < len(e.sharers) && e.sharers[i] == n
}

// hasSharer reports whether node n holds a shared copy.
//
//voyager:noalloc
func (e *dirEntry) hasSharer(n int) bool {
	_, ok := e.sharerIndex(n)
	return ok
}

// addSharer records node n as a sharer; the list stays ascending and holds
// each node once.
//
//voyager:noalloc
func (e *dirEntry) addSharer(n int) {
	if i, ok := e.sharerIndex(n); !ok {
		e.sharers = append(e.sharers, 0) //voyager:alloc-ok(amortized: the list keeps its storage across resets)
		copy(e.sharers[i+1:], e.sharers[i:])
		e.sharers[i] = n
	}
}

// dropSharer removes node n from the sharer list.
//
//voyager:noalloc
func (e *dirEntry) dropSharer(n int) {
	if i, ok := e.sharerIndex(n); ok {
		copy(e.sharers[i:], e.sharers[i+1:])
		e.sharers = e.sharers[:len(e.sharers)-1]
	}
}

// sharerAfter returns the lowest sharer above node n, or -1 if none is.
//
//voyager:noalloc
func (e *dirEntry) sharerAfter(n int) int {
	if i, _ := e.sharerIndex(n + 1); i < len(e.sharers) {
		return e.sharers[i]
	}
	return -1
}

// Scoma implements the default S-COMA protocol: an MSI directory run by sP
// firmware, with data grants delivered through the destination's remote
// command queue (CmdWriteDramCls / CmdSetCls) so that the requesting node's
// firmware never runs on the return path — the property the paper calls out.
type Scoma struct {
	e   *Engine
	cfg ScomaConfig
	dir map[uint32]*dirEntry

	// steps pools the records of directory-transaction steps (scomaStep).
	// It is built on the first step, so a node whose sP never runs one
	// carries none.
	steps *stepPool

	stats ScomaStats
}

// ScomaStats counts protocol activity.
type ScomaStats struct {
	Gets, GetXs, Invals, Recalls, Regrants uint64
	MigratoryGrants                        uint64 // reads granted RW by the heuristic
	Evicts                                 uint64 // frame releases processed
}

// NewScoma installs the S-COMA protocol on a node's firmware engine.
func NewScoma(e *Engine, cfg ScomaConfig) *Scoma {
	s := &Scoma{e: e, cfg: cfg, dir: make(map[uint32]*dirEntry)}
	e.SetScomaCapture(s.onCapture)
	e.Register(SvcScomaGet, s.onGet)
	e.Register(SvcScomaGetX, s.onGetX)
	e.Register(SvcScomaInval, s.onInval)
	e.Register(SvcScomaInvalAck, s.onInvalAck)
	e.Register(SvcScomaRecall, s.onRecall)
	e.Register(SvcScomaRecallData, s.onRecallData)
	e.Register(SvcScomaEvict, s.onEvict)
	return s
}

// Stats returns a snapshot of counters.
func (s *Scoma) Stats() ScomaStats { return s.stats }

// Page-interleaved home assignment.
const linesPerPage = ctrl.PageBytes / bus.LineSize

// ScomaHome returns the home node of a global S-COMA line under the
// page-interleaved assignment (exported so layer-0 software can route
// protocol requests such as evictions).
func ScomaHome(line uint32, numNodes int) int {
	return int(line/linesPerPage) % numNodes
}

// homeOf returns the home node of a global line.
func (s *Scoma) homeOf(line uint32) int {
	return ScomaHome(line, s.cfg.NumNodes)
}

// backingAddr returns the home-local DRAM address of a line's backing copy.
//
//voyager:noalloc
func (s *Scoma) backingAddr(line uint32) uint32 {
	page := line / linesPerPage
	idx := page/uint32(s.cfg.NumNodes)*linesPerPage + line%linesPerPage
	return s.cfg.BackingBase + idx*bus.LineSize
}

// windowAddr returns the global window address of a line.
//
//voyager:noalloc
func (s *Scoma) windowAddr(line uint32) uint32 {
	return s.cfg.Window.Base + line*bus.LineSize
}

func (s *Scoma) lineOf(addr uint32) uint32 {
	return s.cfg.Window.Offset(addr) / bus.LineSize
}

// --- transaction steps ---

// stepKind names the step a scomaStep record runs; each kind that spawns a
// continuation names it in stepNames.
type stepKind uint8

const (
	stepGrant     stepKind = iota // home: read the backing copy, send it to the requester
	stepRecall                    // owner: read its copy back, return it home
	stepWriteBack                 // home: write recalled data back, then grant onward
	stepInval                     // sharer: kill the aP cache's copy, then acknowledge
)

var stepNames = [...]string{
	stepGrant:     "scoma-data",
	stepRecall:    "scoma-recall",
	stepWriteBack: "scoma-grant",
	stepInval:     "scoma-invalack",
}

// scomaStep is one step of a directory transaction: the CTRL commands it
// issues (a bus operation whose completion spawns the step's firmware
// continuation, and the grant that continuation may send), the buffers they
// carry, and the transaction state the continuation needs. A record goes
// back to its pool once nothing references it: in the Done of the last
// command it issued, or in its continuation once all its commands have
// finished. Its method values are bound once, when the pool builds it.
type scomaStep struct {
	s    *Scoma
	kind stepKind

	line uint32
	node int            // grant: the requester; recall, inval: the home; write-back: the recalled owner
	st   sram.LineState // grant: the state granted
	e    *dirEntry      // home steps: the line's entry
	req  dirReq         // write-back: the transaction's request
	// install: a grant out of the uncached state records its holder in the
	// entry once the data is on its way.
	install bool
	share   bool // recall: the owner keeps a shared copy
	idle    bool // in the pool

	data  [bus.LineSize]byte
	tx    bus.Transaction
	bop   ctrl.BusOp
	msg   ctrl.SendMsg
	frame txrx.Frame

	spawnFn, putFn func()
	runFn          func(p *sim.Proc)
}

// stepPool holds a Scoma's idle step records.
type stepPool struct {
	free []*scomaStep
	out  int // records handed out and not yet back
}

// stepGet returns a recycled (or new) step record of the given kind.
//
//voyager:noalloc
func (s *Scoma) stepGet(kind stepKind) *scomaStep {
	if s.steps == nil {
		s.steps = &stepPool{} //voyager:alloc-ok(pool warm-up: built on the first step)
	}
	pl := s.steps
	pl.out++
	if n := len(pl.free); n > 0 {
		r := pl.free[n-1]
		pl.free = pl.free[:n-1]
		r.kind, r.idle = kind, false
		return r
	}
	r := &scomaStep{s: s, kind: kind} //voyager:alloc-ok(pool warm-up; recycled thereafter)
	r.spawnFn = r.spawn               //voyager:alloc-ok(one-time method binding for the pooled record)
	r.putFn = r.put                   //voyager:alloc-ok(one-time method binding for the pooled record)
	r.runFn = r.run                   //voyager:alloc-ok(one-time method binding for the pooled record)
	return r
}

// put returns the record to its pool, cleared but for its bindings.
//
//voyager:noalloc
func (r *scomaStep) put() {
	if r.idle {
		panic("firmware: S-COMA step record recycled twice")
	}
	pl := r.s.steps
	pl.out--
	*r = scomaStep{s: r.s, idle: true, spawnFn: r.spawnFn, putFn: r.putFn, runFn: r.runFn}
	pl.free = append(pl.free, r) //voyager:alloc-ok(amortized: pool backing array is retained)
}

// busOp issues the record's bus operation with the given Done: spawnFn to
// continue the step, or putFn when nothing follows it.
//
//voyager:noalloc
func (r *scomaStep) busOp(p *sim.Proc, kind bus.Kind, addr uint32, data []byte, done func()) {
	r.tx = bus.Transaction{Kind: kind, Addr: addr, Data: data}
	r.bop = ctrl.BusOp{Base: ctrl.Base{Done: done}, Tx: &r.tx}
	r.s.e.IssueCommand(p, 0, &r.bop)
}

// spawn is the Done of the step's bus operation: the step continues on a
// fresh firmware activity, which receives its own Proc (continuations must
// never block on a Proc they did not run on).
//
//voyager:noalloc
func (r *scomaStep) spawn() {
	r.s.e.Go(stepNames[r.kind], r.runFn) //voyager:alloc-ok(a spawned continuation's Proc record)
}

// run is the step's continuation.
//
//voyager:noalloc
func (r *scomaStep) run(p *sim.Proc) {
	switch r.kind {
	case stepGrant:
		r.grant(p)
	case stepRecall:
		r.recall(p)
	case stepWriteBack:
		r.writeBack(p)
	case stepInval:
		r.invalAck(p)
	}
}

// --- client side ---

// onCapture handles an aP access that failed the clsSRAM state check.
func (s *Scoma) onCapture(p *sim.Proc, op biu.CapturedOp) {
	line := s.lineOf(op.Addr)
	wantX := op.Kind == bus.ReadLineX || op.Kind == bus.Kill || op.Kind == bus.WriteWord ||
		op.Kind == bus.WriteLine
	// Mark Pending so further aP retries stall silently.
	s.e.Ctrl().Cls().Set(int(line), sram.CLPending)
	svc := SvcScomaGet
	if wantX {
		svc = SvcScomaGetX
		s.stats.GetXs++
	} else {
		s.stats.Gets++
	}
	var body [4]byte
	binary.BigEndian.PutUint32(body[:], line)
	s.e.SendSvc(p, s.homeOf(line), svc, body[:], arctic.Low, nil)
}

// dropCopy invalidates this client's copy of line in clsSRAM and re-arms
// the line's aBIU notification.
//
//voyager:noalloc
func (s *Scoma) dropCopy(line uint32) {
	s.e.Ctrl().Cls().Set(int(line), sram.CLInvalid)
	s.e.ABIU().ClearScomaNotify(int(line))
}

// onInval invalidates a shared copy at this client: the aP cache's copy is
// killed, then invalAck acknowledges.
func (s *Scoma) onInval(p *sim.Proc, src uint16, body []byte) {
	line := binary.BigEndian.Uint32(body)
	s.dropCopy(line)
	r := s.stepGet(stepInval)
	r.line, r.node = line, int(src)
	r.busOp(p, bus.Kill, s.windowAddr(line), nil, r.spawnFn)
}

// invalAck acknowledges the invalidation to the home once the kill is done.
//
//voyager:noalloc
func (r *scomaStep) invalAck(p *sim.Proc) {
	s, home := r.s, r.node
	var ack [4]byte
	binary.BigEndian.PutUint32(ack[:], r.line)
	r.put()
	s.e.Occupy(p, s.e.costs.Handler)
	s.e.SendSvc(p, home, SvcScomaInvalAck, ack[:], arctic.High, nil)
}

// onRecall surrenders (share=keep a read-only copy) or gives up ownership.
//
// Order matters: write permission is revoked (cls -> RO) BEFORE the line is
// read. The read's intervention downgrades any Modified cache copy, and
// with cls at RO a subsequent store's Kill upgrade is retried and captured —
// so no write can slip in after the recalled data has been captured. (This
// ordering was originally wrong and found by the memcheck linearizability
// torture test.)
func (s *Scoma) onRecall(p *sim.Proc, src uint16, body []byte) {
	line := binary.BigEndian.Uint32(body)
	r := s.stepGet(stepRecall)
	r.line, r.node, r.share = line, int(src), body[4] != 0
	// 1. Revoke write permission first.
	s.e.Ctrl().Cls().Set(int(line), sram.CLReadOnly)
	// 2. Read the line from the local frame: if the aP cache holds it
	// modified, intervention supplies the fresh data and downgrades it.
	r.busOp(p, bus.ReadLine, s.windowAddr(line), r.data[:], r.spawnFn)
}

// recall returns the line read back to the home. An owner giving the line
// up also kills the aP cache's copy; that kill's Done recycles the record.
//
//voyager:noalloc
func (r *scomaStep) recall(p *sim.Proc) {
	s, home := r.s, r.node
	s.e.Occupy(p, s.e.costs.Handler)
	var reply [4 + bus.LineSize]byte
	binary.BigEndian.PutUint32(reply[:], r.line)
	copy(reply[4:], r.data[:])
	if r.share {
		r.put()
	} else {
		s.dropCopy(r.line)
		r.busOp(p, bus.Kill, s.windowAddr(r.line), nil, r.putFn)
	}
	s.e.SendSvc(p, home, SvcScomaRecallData, reply[:], arctic.High, nil)
}

// --- home side ---

func (s *Scoma) entry(line uint32) *dirEntry {
	e := s.dir[line]
	if e == nil {
		e = &dirEntry{}
		s.dir[line] = e
	}
	return e
}

func (s *Scoma) onGet(p *sim.Proc, src uint16, body []byte) {
	s.admit(p, binary.BigEndian.Uint32(body), dirReq{node: int(src), wantX: false})
}

func (s *Scoma) onGetX(p *sim.Proc, src uint16, body []byte) {
	s.admit(p, binary.BigEndian.Uint32(body), dirReq{node: int(src), wantX: true})
}

// onEvict releases the requester's copy of a line (S-COMA frames are a
// cache; software reclaims frames under memory pressure). Eviction is
// serialized through the home like any other request, reusing the recall
// machinery, so it cannot race a concurrent grant.
func (s *Scoma) onEvict(p *sim.Proc, src uint16, body []byte) {
	s.admit(p, binary.BigEndian.Uint32(body), dirReq{node: int(src), evict: true})
}

func (s *Scoma) admit(p *sim.Proc, line uint32, req dirReq) {
	e := s.entry(line)
	if e.busy {
		e.waiting = append(e.waiting, req)
		return
	}
	s.process(p, line, e, req)
}

// sendRecall asks the line's owner to return it; the owner keeps a shared
// copy if share is set. The transaction continues in onRecallData.
//
//voyager:noalloc
func (s *Scoma) sendRecall(p *sim.Proc, line uint32, owner int, share bool) {
	s.stats.Recalls++
	var body [5]byte
	binary.BigEndian.PutUint32(body[:], line)
	if share {
		body[4] = 1
	}
	s.e.SendSvc(p, owner, SvcScomaRecall, body[:], arctic.High, nil)
}

// sendInval asks sharer n to drop its copy of line; the transaction
// continues in onInvalAck.
//
//voyager:noalloc
func (s *Scoma) sendInval(p *sim.Proc, line uint32, n int) {
	var body [4]byte
	binary.BigEndian.PutUint32(body[:], line)
	s.stats.Invals++
	s.e.SendSvc(p, n, SvcScomaInval, body[:], arctic.High, nil)
}

// process starts one directory transaction. Invariant: e is not busy.
//
//voyager:noalloc
func (s *Scoma) process(p *sim.Proc, line uint32, e *dirEntry, req dirReq) {
	e.busy = true
	e.cur = req
	if req.evict {
		s.processEvict(p, line, e, req)
		return
	}
	if !req.wantX && s.cfg.Migratory && e.migratory && e.state == dirExcl &&
		e.owner != req.node {
		// Migratory line: hand the reader exclusive ownership directly.
		req.wantX = true
		e.cur = req
		s.stats.MigratoryGrants++
	}
	switch e.state {
	case dirExcl:
		if e.owner == req.node {
			// The requester already owns the line (a stale request after a
			// race): re-grant read-write.
			s.stats.Regrants++
			s.grantNoData(p, line, req.node, sram.CLReadWrite)
			s.finish(p, line, e)
			return
		}
		s.sendRecall(p, line, e.owner, !req.wantX)
	case dirShared:
		if !req.wantX {
			e.lastReader = req.node
			if e.hasSharer(req.node) {
				s.stats.Regrants++
				s.grantNoData(p, line, req.node, sram.CLReadOnly)
				s.finish(p, line, e)
				return
			}
			e.addSharer(req.node)
			s.grantData(p, line, req.node, sram.CLReadOnly, e, false)
			return
		}
		// Upgrade: invalidate every other sharer, then grant exclusivity.
		if e.hasSharer(req.node) && req.node == e.lastReader {
			// Read-then-write pattern: the line migrates.
			e.migratory = true
		}
		// Invalidate in the sharer list's ascending node order: the
		// injection order of inval messages is visible in network contention
		// and ack arrival times. An ack can drop its sharer from the list
		// while later invals are still being sent, so the walk resumes after
		// the last node sent rather than at an index.
		e.pendingInvals = 0
		for n := e.sharerAfter(-1); n >= 0; n = e.sharerAfter(n) {
			if n != req.node {
				e.pendingInvals++
				s.sendInval(p, line, n)
			}
		}
		if e.pendingInvals == 0 {
			s.grantExclusive(p, line, e)
		}
		// else continues in onInvalAck.
	case dirUncached:
		st := sram.CLReadOnly
		if req.wantX {
			st = sram.CLReadWrite
		} else {
			e.lastReader = req.node
		}
		s.grantData(p, line, req.node, st, e, true)
	}
}

// processEvict releases req.node's copy: a dirty owner is recalled (the
// recall writes the data home), a clean sharer is invalidated.
//
//voyager:noalloc
func (s *Scoma) processEvict(p *sim.Proc, line uint32, e *dirEntry, req dirReq) {
	s.stats.Evicts++
	switch {
	case e.state == dirExcl && e.owner == req.node:
		s.sendRecall(p, line, e.owner, false)
		// onRecallData sees cur.evict and finishes without granting.
	case e.state == dirShared && e.hasSharer(req.node):
		e.pendingInvals = 1
		s.sendInval(p, line, req.node)
		// onInvalAck sees cur.evict and finishes.
	default:
		// Nothing to release (already gone): done.
		s.finish(p, line, e)
	}
}

// grantExclusive completes a GetX once all other sharers are gone.
//
//voyager:noalloc
func (s *Scoma) grantExclusive(p *sim.Proc, line uint32, e *dirEntry) {
	req := e.cur
	wasSharer := e.hasSharer(req.node)
	e.sharers = e.sharers[:0]
	e.state = dirExcl
	e.owner = req.node
	if wasSharer {
		// Upgrade: the requester's copy is valid; just flip its state.
		s.stats.Regrants++
		s.grantNoData(p, line, req.node, sram.CLReadWrite)
		s.finish(p, line, e)
		return
	}
	s.grantData(p, line, req.node, sram.CLReadWrite, e, false)
}

func (s *Scoma) onInvalAck(p *sim.Proc, src uint16, body []byte) {
	line := binary.BigEndian.Uint32(body)
	e := s.entry(line)
	if !e.busy || e.pendingInvals == 0 {
		panic(fmt.Sprintf("firmware: node %d: unexpected inval ack for line %d", s.e.node, line))
	}
	e.dropSharer(int(src))
	e.pendingInvals--
	if e.pendingInvals > 0 {
		return
	}
	if e.cur.evict {
		if len(e.sharers) == 0 {
			e.state = dirUncached
		}
		s.finish(p, line, e)
		return
	}
	s.grantExclusive(p, line, e)
}

// onRecallData refreshes the backing copy with the recalled line; then
// writeBack completes the transaction.
func (s *Scoma) onRecallData(p *sim.Proc, src uint16, body []byte) {
	line := binary.BigEndian.Uint32(body)
	e := s.entry(line)
	if !e.busy || e.state != dirExcl {
		panic(fmt.Sprintf("firmware: node %d: unexpected recall data for line %d", s.e.node, line))
	}
	r := s.stepGet(stepWriteBack)
	r.line, r.node, r.e, r.req = line, int(src), e, e.cur
	copy(r.data[:], body[4:])
	r.busOp(p, bus.WriteLine, s.backingAddr(line), r.data[:], r.spawnFn)
}

// writeBack grants the line to the waiting requester once its data is home
// (the write has finished, so the record goes back at once).
//
//voyager:noalloc
func (r *scomaStep) writeBack(p *sim.Proc) {
	s, line, prevOwner, e, req := r.s, r.line, r.node, r.e, r.req
	r.put()
	s.e.Occupy(p, s.e.costs.Handler)
	e.sharers = e.sharers[:0]
	switch {
	case req.evict:
		// The recall WAS the eviction: data is home, nobody holds the line.
		e.state = dirUncached
		s.finish(p, line, e)
	case req.wantX:
		e.state = dirExcl
		e.owner = req.node
		s.grantData(p, line, req.node, sram.CLReadWrite, e, false)
	default:
		e.state = dirShared
		e.addSharer(prevOwner)
		e.addSharer(req.node)
		s.grantData(p, line, req.node, sram.CLReadOnly, e, false)
	}
}

// grantData reads the backing copy and delivers it to the requester's frame
// through the remote command queue (no firmware on the return path); grant
// then closes the transaction.
//
//voyager:noalloc
func (s *Scoma) grantData(p *sim.Proc, line uint32, node int, st sram.LineState, e *dirEntry,
	install bool) {
	r := s.stepGet(stepGrant)
	r.line, r.node, r.st, r.e, r.install = line, node, st, e, install
	r.busOp(p, bus.ReadLine, s.backingAddr(line), r.data[:], r.spawnFn)
}

// grant sends the line read from the backing copy to the requester as a
// CmdWriteDramCls, whose Done recycles the record, and closes the
// transaction.
//
//voyager:noalloc
func (r *scomaStep) grant(p *sim.Proc) {
	s, line, node, st, e, install := r.s, r.line, r.node, r.st, r.e, r.install
	s.e.Occupy(p, s.e.costs.Handler)
	r.frame = txrx.Frame{Kind: txrx.Cmd, Op: txrx.CmdWriteDramCls, Addr: s.windowAddr(line),
		Aux: uint16(st), Payload: r.data[:]}
	r.send(p, node)
	if install {
		if st == sram.CLReadWrite {
			e.state = dirExcl
			e.owner = node
		} else {
			e.state = dirShared
			e.addSharer(node)
		}
	}
	s.finish(p, line, e)
}

// send issues the record's frame to node's remote command queue; the
// send's Done recycles the record, so the caller must not touch it after.
//
//voyager:noalloc
func (r *scomaStep) send(p *sim.Proc, node int) {
	r.msg = ctrl.SendMsg{Base: ctrl.Base{Done: r.putFn}, Frame: &r.frame, Dest: uint16(node),
		Priority: arctic.High}
	r.s.e.IssueCommand(p, 0, &r.msg)
}

// grantNoData flips the requester's clsSRAM state through the remote command
// queue (the line data it already holds is valid).
//
//voyager:noalloc
func (s *Scoma) grantNoData(p *sim.Proc, line uint32, node int, st sram.LineState) {
	r := s.stepGet(stepGrant)
	r.frame = txrx.Frame{Kind: txrx.Cmd, Op: txrx.CmdSetCls, Addr: s.windowAddr(line),
		Aux: uint16(st), Count: 1}
	r.send(p, node)
}

// finish closes a directory transaction and admits the next waiter.
//
//voyager:noalloc
func (s *Scoma) finish(p *sim.Proc, line uint32, e *dirEntry) {
	e.busy = false
	if len(e.waiting) > 0 {
		next := e.waiting[0]
		e.waiting = sim.PopFront(e.waiting)
		s.process(p, line, e, next)
	}
}
