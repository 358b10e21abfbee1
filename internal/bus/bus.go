// Package bus models the PowerPC 60X memory bus of a StarT-Voyager node: a
// shared, snooped, retry-capable bus connecting the application processor's
// cache, the memory controller, and the NIU's aP bus interface unit (aBIU).
//
// The model is transaction-granular: each transaction holds the bus for an
// address tenure, a snoop window in which every other device may Retry or
// Claim it, an optional responder access latency, and a data tenure of 8-byte
// beats. Retried transactions are re-issued by the bus itself after a
// backoff, which is exactly the mechanism StarT-Voyager's S-COMA support
// uses to stall a processor touching data that has not yet arrived.
package bus

import (
	"fmt"

	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// LineSize is the coherence granularity (bytes) of the 604e systems modeled.
const LineSize = 32

// BeatBytes is the width of one data-bus beat.
const BeatBytes = 8

// Kind enumerates bus transaction types.
type Kind int

const (
	// ReadLine is a coherent 32-byte burst read (shared intent).
	ReadLine Kind = iota
	// ReadLineX is a coherent read with intent to modify (RWITM).
	ReadLineX
	// WriteLine is a 32-byte burst write (cache writeback or DMA write).
	WriteLine
	// ReadWord is an uncached read of 1..8 bytes.
	ReadWord
	// WriteWord is an uncached write of 1..8 bytes.
	WriteWord
	// Kill broadcasts an invalidation for a line; it carries no data.
	Kill
)

// String names the transaction kind.
func (k Kind) String() string {
	switch k {
	case ReadLine:
		return "ReadLine"
	case ReadLineX:
		return "ReadLineX"
	case WriteLine:
		return "WriteLine"
	case ReadWord:
		return "ReadWord"
	case WriteWord:
		return "WriteWord"
	case Kill:
		return "Kill"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// IsRead reports whether the transaction transfers data to the master.
func (k Kind) IsRead() bool { return k == ReadLine || k == ReadLineX || k == ReadWord }

// Transaction is one bus operation. For line kinds, Addr must be 32-byte
// aligned and Data 32 bytes long; for word kinds Data is 1..8 bytes and must
// not cross an 8-byte boundary.
type Transaction struct {
	Kind   Kind
	Addr   uint32
	Data   []byte
	Master Device // issuing device (excluded from snooping)

	Retries int // filled by the bus: number of retry rounds taken
	// SharedSeen is set by the bus when any snooper asserted the shared
	// line (the 60X SHD signal): a filling cache must install the line in
	// Shared rather than Exclusive state.
	SharedSeen bool
}

func (t *Transaction) validate() error {
	switch t.Kind {
	case ReadLine, ReadLineX, WriteLine:
		if t.Addr%LineSize != 0 {
			return fmt.Errorf("bus: %v at unaligned %#x", t.Kind, t.Addr)
		}
		if len(t.Data) != LineSize {
			return fmt.Errorf("bus: %v with %d data bytes", t.Kind, len(t.Data))
		}
	case ReadWord, WriteWord:
		if len(t.Data) == 0 || len(t.Data) > BeatBytes {
			return fmt.Errorf("bus: %v with %d data bytes", t.Kind, len(t.Data))
		}
		if t.Addr/BeatBytes != (t.Addr+uint32(len(t.Data))-1)/BeatBytes {
			return fmt.Errorf("bus: %v crosses beat boundary at %#x+%d", t.Kind, t.Addr, len(t.Data))
		}
	case Kill:
		if t.Addr%LineSize != 0 {
			return fmt.Errorf("bus: Kill at unaligned %#x", t.Addr)
		}
	default:
		return fmt.Errorf("bus: unknown kind %d", t.Kind)
	}
	return nil
}

//voyager:noalloc
func (t *Transaction) beats() int {
	switch t.Kind {
	case ReadLine, ReadLineX, WriteLine:
		return LineSize / BeatBytes
	case ReadWord, WriteWord:
		return 1
	default:
		return 0
	}
}

// Action is a device's snoop decision.
type Action int

const (
	// OK: the device has no stake in the transaction (or has updated its
	// internal state silently, e.g. invalidated a clean line).
	OK Action = iota
	// Retry aborts the transaction; the bus re-issues it after the backoff.
	Retry
	// Claim: the device will service the data phase (memory controller for
	// its range, aBIU for NIU-mapped ranges, a cache interveining with
	// modified data).
	Claim
)

// Snoop is the result of presenting a transaction to a device.
type Snoop struct {
	Action Action
	// Intervene marks a cache supplying modified data; an intervening claim
	// takes precedence over an ordinary (memory) claim.
	Intervene bool
	// Shared asserts the shared snoop line: the master's cache must not
	// install the line exclusively.
	Shared bool
	// Latency is the claimer's initial access time before data beats.
	Latency sim.Time
	// Serve performs the data phase: fill tx.Data for reads, absorb it for
	// writes. Called once, at the data phase, if this claim wins.
	Serve func(tx *Transaction)
}

// Device is anything attached to the bus.
type Device interface {
	// SnoopBus observes a transaction issued by another master.
	SnoopBus(tx *Transaction) Snoop
}

// Config holds bus timing parameters.
type Config struct {
	CycleTime    sim.Time // bus clock period
	AddrCycles   int      // address tenure + snoop window
	RetryBackoff sim.Time // master re-issue delay after a retry
	MaxRetries   int      // livelock guard; panic beyond
}

// DefaultConfig returns 66 MHz 60X-like timing.
func DefaultConfig() Config {
	return Config{CycleTime: 15 * sim.Nanosecond, AddrCycles: 2,
		RetryBackoff: 150 * sim.Nanosecond, MaxRetries: 1e6}
}

// Stats counts bus activity.
type Stats struct {
	Transactions uint64
	Retries      uint64
	DataBytes    uint64
}

// Bus is one node's memory bus.
type Bus struct {
	eng     *sim.Engine
	cfg     Config
	res     *sim.Resource
	devices []Device
	stats   Stats
	node    int // owning node, for trace attribution (SetNode)
	retHist *stats.Histogram

	// opFree recycles busOp records so steady-state issues allocate nothing.
	// The pool is per-bus (per-node), never global: parallel sweeps run whole
	// machines on separate goroutines.
	opFree []*busOp

	// pcallTx/pcallFn adapt IssueP to Proc.Call without a per-call closure:
	// Call invokes its start function synchronously, so the staged
	// transaction is consumed before IssueP returns.
	pcallTx *Transaction
	pcallFn func(done func())
}

// New creates an empty bus.
func New(eng *sim.Engine, name string, cfg Config) *Bus {
	b := &Bus{eng: eng, cfg: cfg, res: sim.NewResource(eng, name),
		retHist: stats.NewHistogram(0, 1, 2, 4, 8, 16, 64, 256)}
	b.pcallFn = b.pcallStart
	return b
}

// Attach adds a device to the snoop set.
func (b *Bus) Attach(d Device) { b.devices = append(b.devices, d) }

// Engine returns the engine the bus runs on.
func (b *Bus) Engine() *sim.Engine { return b.eng }

// Stats returns a snapshot of activity counters.
func (b *Bus) Stats() Stats { return b.stats }

// BusyTime returns accumulated bus-held time.
func (b *Bus) BusyTime() sim.Time { return b.res.BusyTime() }

// SetNode records the owning node's id for trace attribution (node 0 until
// set, which is right for single-node tests).
func (b *Bus) SetNode(id int) { b.node = id }

// busMetrics is the bus's metric table.
var busMetrics = stats.NewMetrics(
	stats.GaugeOf("transactions", func(b *Bus) int64 { return int64(b.stats.Transactions) }),
	stats.GaugeOf("retries", func(b *Bus) int64 { return int64(b.stats.Retries) }),
	stats.GaugeOf("data_bytes", func(b *Bus) int64 { return int64(b.stats.DataBytes) }),
	stats.TimeOf("busy", (*Bus).BusyTime),
	stats.HistogramOf("retries_per_tx", func(b *Bus) *stats.Histogram { return b.retHist }),
	// Masters queued for bus tenure right now — the bus-side depth series.
	stats.GaugeOf("waiters", func(b *Bus) int64 { return int64(b.res.QueueLen()) }),
)

// RegisterMetrics registers the bus's counters under r.
func (b *Bus) RegisterMetrics(r *stats.Registry) { busMetrics.Register(r, b) }

// Issue runs tx to completion, retrying as needed, then calls done. The
// master must not mutate tx until done runs.
//
//voyager:noalloc steady-state issues ride a recycled busOp record
func (b *Bus) Issue(tx *Transaction, done func()) {
	if err := tx.validate(); err != nil { //voyager:alloc-ok(validate allocates only when rejecting a malformed transaction)
		panic(err)
	}
	op := b.newOp(tx, done)
	b.res.Acquire(op.grantedFn)
}

// IssueP is the blocking form of Issue for Procs. The transaction is staged
// on the bus and picked up synchronously by pcallStart, so no adapter
// closure is built per call.
//
//voyager:noalloc
func (b *Bus) IssueP(p *sim.Proc, tx *Transaction) {
	b.pcallTx = tx
	p.Call(b.pcallFn)
}

//voyager:noalloc
func (b *Bus) pcallStart(done func()) {
	tx := b.pcallTx
	b.pcallTx = nil
	b.Issue(tx, done)
}

// busOp carries one transaction through the address tenure, snoop window,
// data phase, and completion as prebound method values on a recycled record.
// The phase structure — which events are scheduled, with which delays — is
// identical to the closure chain it replaced, so event (time, seq) order and
// therefore all simulated outcomes are unchanged.
type busOp struct {
	b    *Bus
	tx   *Transaction
	done func()
	span sim.Span

	winner    Snoop // winning claim, valid when hasWinner
	hasWinner bool

	grantedFn func()
	snoopFn   func()
	serveFn   func()
	finishFn  func()
	retryFn   func()
}

//voyager:noalloc record and method values are recycled via opFree
func (b *Bus) newOp(tx *Transaction, done func()) *busOp {
	var op *busOp
	if n := len(b.opFree); n > 0 {
		op = b.opFree[n-1]
		b.opFree = b.opFree[:n-1]
	} else {
		op = &busOp{b: b}         //voyager:alloc-ok(pool warm-up; recycled thereafter)
		op.grantedFn = op.granted //voyager:alloc-ok(one-time method binding for the pooled record)
		op.snoopFn = op.snoop     //voyager:alloc-ok(one-time method binding for the pooled record)
		op.serveFn = op.serve     //voyager:alloc-ok(one-time method binding for the pooled record)
		op.finishFn = op.finish   //voyager:alloc-ok(one-time method binding for the pooled record)
		op.retryFn = op.retry     //voyager:alloc-ok(one-time method binding for the pooled record)
	}
	op.tx = tx
	op.done = done
	op.hasWinner = false
	return op
}

// granted runs with the bus held: open the tenure span, then burn the
// address cycles before snooping.
//
//voyager:noalloc
func (op *busOp) granted() {
	b := op.b
	op.span = sim.Span{}
	if b.eng.Observed() {
		op.span = b.eng.BeginSpan(b.node, "bus", op.tx.Kind.String(), //voyager:alloc-ok(observed runs trade allocation for visibility)
			sim.Hex("addr", uint64(op.tx.Addr)))
	}
	b.eng.Schedule(sim.Time(b.cfg.AddrCycles)*b.cfg.CycleTime, op.snoopFn)
}

// snoop presents the transaction to every other device and resolves the
// winning claim, retrying the whole tenure if any device asserted Retry.
//
//voyager:noalloc
func (op *busOp) snoop() {
	b, tx := op.b, op.tx
	retried := false
	op.hasWinner = false
	for _, d := range b.devices {
		if d == tx.Master {
			continue
		}
		s := d.SnoopBus(tx)
		if s.Shared {
			tx.SharedSeen = true
		}
		switch s.Action {
		case Retry:
			retried = true
		case Claim:
			if !op.hasWinner || (s.Intervene && !op.winner.Intervene) {
				op.winner = s
				op.hasWinner = true
			} else if s.Intervene && op.winner.Intervene {
				panic(fmt.Sprintf("bus: double intervention on %v @%#x", tx.Kind, tx.Addr)) //voyager:alloc-ok(panic path)
			}
		}
	}
	if retried {
		// Guarded like granted's BeginSpan: the ...Field slice escapes through
		// the Observer interface, so building it costs an allocation per
		// retry even when the span is inert.
		if b.eng.Observed() {
			op.span.End(sim.Str("result", "retry"))
		}
		b.res.Release()
		b.stats.Retries++
		tx.Retries++
		if tx.Retries > b.cfg.MaxRetries {
			panic(fmt.Sprintf("bus: %v @%#x retried %d times (livelock)", //voyager:alloc-ok(panic path)
				tx.Kind, tx.Addr, tx.Retries))
		}
		b.eng.Schedule(b.cfg.RetryBackoff, op.retryFn)
		return
	}
	if !op.hasWinner && tx.Kind != Kill {
		panic(fmt.Sprintf("bus: unclaimed %v @%#x", tx.Kind, tx.Addr)) //voyager:alloc-ok(panic path)
	}
	var lat sim.Time
	if op.hasWinner {
		lat = op.winner.Latency
	}
	b.eng.Schedule(lat, op.serveFn)
}

// retry re-arbitrates for the bus after the backoff.
//
//voyager:noalloc
func (op *busOp) retry() {
	op.b.res.Acquire(op.grantedFn)
}

// serve runs the winning claim's data phase, then the data tenure.
//
//voyager:noalloc
func (op *busOp) serve() {
	if op.hasWinner && op.winner.Serve != nil {
		op.winner.Serve(op.tx)
	}
	op.b.eng.Schedule(sim.Time(op.tx.beats())*op.b.cfg.CycleTime, op.finishFn)
}

// finish accounts the transaction, releases the bus, recycles the record,
// and completes the master's callback.
//
//voyager:noalloc
func (op *busOp) finish() {
	b, tx, done := op.b, op.tx, op.done
	b.stats.Transactions++
	b.stats.DataBytes += uint64(tx.beats() * BeatBytes)
	b.retHist.Observe(int64(tx.Retries))
	op.span.End()
	op.tx, op.done, op.winner = nil, nil, Snoop{}
	b.opFree = append(b.opFree, op) //voyager:alloc-ok(amortized: pool backing array is retained)
	b.res.Release()
	done()
}

// Range is a half-open physical address range [Base, Base+Size).
type Range struct {
	Base, Size uint32
}

// Contains reports whether addr falls in the range.
func (r Range) Contains(addr uint32) bool {
	return addr >= r.Base && addr-r.Base < r.Size
}

// Offset returns addr-Base; callers must have checked Contains.
func (r Range) Offset(addr uint32) uint32 { return addr - r.Base }

// End returns the first address past the range.
func (r Range) End() uint32 { return r.Base + r.Size }
