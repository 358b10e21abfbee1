package bus

import (
	"testing"

	"startvoyager/internal/sim"
)

// fakeDev is a scriptable bus device.
type fakeDev struct {
	snoop   func(tx *Transaction) Snoop
	snooped []*Transaction
}

func (d *fakeDev) SnoopBus(tx *Transaction) Snoop {
	d.snooped = append(d.snooped, tx)
	if d.snoop == nil {
		return Snoop{}
	}
	return d.snoop(tx)
}

// memDev claims a range and serves from a byte array.
func memDev(rng Range, latency sim.Time) (*fakeDev, []byte) {
	data := make([]byte, rng.Size)
	d := &fakeDev{}
	d.snoop = func(tx *Transaction) Snoop {
		if tx.Kind == Kill || !rng.Contains(tx.Addr) {
			return Snoop{}
		}
		return Snoop{Action: Claim, Latency: latency, Serve: func(tx *Transaction) {
			off := rng.Offset(tx.Addr)
			if tx.Kind.IsRead() {
				copy(tx.Data, data[off:])
			} else {
				copy(data[off:], tx.Data)
			}
		}}
	}
	return d, data
}

func TestReadWriteTiming(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, "bus0", DefaultConfig())
	mem, backing := memDev(Range{0, 1 << 20}, 60)
	master := &fakeDev{}
	b.Attach(mem)
	b.Attach(master)
	copy(backing[64:], []byte{1, 2, 3, 4, 5, 6, 7, 8})

	var readDone sim.Time
	buf := make([]byte, LineSize)
	b.Issue(&Transaction{Kind: ReadLine, Addr: 64, Data: buf, Master: master}, func() {
		readDone = eng.Now()
	})
	eng.Run()
	// 2 addr cycles (30) + 60 latency + 4 beats (60) = 150ns.
	if readDone != 150 {
		t.Fatalf("ReadLine done at %v, want 150", readDone)
	}
	if buf[0] != 1 || buf[7] != 8 {
		t.Fatalf("data = %v", buf[:8])
	}
	// Uncached word write: 30 + 60 + 15 = 105ns more.
	var writeDone sim.Time
	b.Issue(&Transaction{Kind: WriteWord, Addr: 128, Data: []byte{0xAB}, Master: master},
		func() { writeDone = eng.Now() })
	eng.Run()
	if writeDone != 255 {
		t.Fatalf("WriteWord done at %v, want 255", writeDone)
	}
	if backing[128] != 0xAB {
		t.Fatal("write not applied")
	}
	st := b.Stats()
	if st.Transactions != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMasterNotSnooped(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, "bus0", DefaultConfig())
	mem, _ := memDev(Range{0, 4096}, 0)
	master := &fakeDev{}
	b.Attach(mem)
	b.Attach(master)
	b.Issue(&Transaction{Kind: ReadWord, Addr: 0, Data: make([]byte, 8), Master: master}, func() {})
	eng.Run()
	if len(master.snooped) != 0 {
		t.Fatal("master snooped its own transaction")
	}
	if len(mem.snooped) != 1 {
		t.Fatal("responder not snooped")
	}
}

func TestRetryThenSucceed(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.RetryBackoff = 100
	b := New(eng, "bus0", cfg)
	mem, _ := memDev(Range{0, 4096}, 0)
	tries := 0
	retrier := &fakeDev{snoop: func(tx *Transaction) Snoop {
		tries++
		if tries <= 3 {
			return Snoop{Action: Retry}
		}
		return Snoop{}
	}}
	master := &fakeDev{}
	b.Attach(mem)
	b.Attach(retrier)
	b.Attach(master)
	tx := &Transaction{Kind: ReadLine, Addr: 0, Data: make([]byte, LineSize), Master: master}
	done := false
	b.Issue(tx, func() { done = true })
	eng.Run()
	if !done || tx.Retries != 3 {
		t.Fatalf("done=%v retries=%d", done, tx.Retries)
	}
	if b.Stats().Retries != 3 {
		t.Fatalf("stats %+v", b.Stats())
	}
}

func TestRetryLivelockPanics(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.MaxRetries = 5
	cfg.RetryBackoff = 10
	b := New(eng, "bus0", cfg)
	always := &fakeDev{snoop: func(tx *Transaction) Snoop { return Snoop{Action: Retry} }}
	master := &fakeDev{}
	b.Attach(always)
	b.Attach(master)
	b.Issue(&Transaction{Kind: Kill, Addr: 0, Master: master}, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("no livelock panic")
		}
	}()
	eng.Run()
}

func TestInterventionBeatsMemory(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, "bus0", DefaultConfig())
	mem, backing := memDev(Range{0, 4096}, 60)
	copy(backing, []byte{9, 9, 9, 9})
	cachev := &fakeDev{snoop: func(tx *Transaction) Snoop {
		return Snoop{Action: Claim, Intervene: true, Latency: 6,
			Serve: func(tx *Transaction) { copy(tx.Data, []byte{7, 7, 7, 7}) }}
	}}
	master := &fakeDev{}
	b.Attach(mem)
	b.Attach(cachev)
	b.Attach(master)
	buf := make([]byte, LineSize)
	b.Issue(&Transaction{Kind: ReadLine, Addr: 0, Data: buf, Master: master}, func() {})
	eng.Run()
	if buf[0] != 7 {
		t.Fatalf("intervention data not used: %v", buf[:4])
	}
}

func TestUnclaimedPanics(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, "bus0", DefaultConfig())
	master := &fakeDev{}
	b.Attach(master)
	b.Issue(&Transaction{Kind: ReadWord, Addr: 0xdead0000, Data: make([]byte, 4), Master: master}, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unclaimed address")
		}
	}()
	eng.Run()
}

func TestKillNeedsNoClaimer(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, "bus0", DefaultConfig())
	master := &fakeDev{}
	b.Attach(master)
	ok := false
	b.Issue(&Transaction{Kind: Kill, Addr: 32, Master: master}, func() { ok = true })
	eng.Run()
	if !ok {
		t.Fatal("Kill did not complete")
	}
}

func TestValidation(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, "bus0", DefaultConfig())
	master := &fakeDev{}
	bad := []*Transaction{
		{Kind: ReadLine, Addr: 4, Data: make([]byte, 32), Master: master}, // unaligned
		{Kind: ReadLine, Addr: 0, Data: make([]byte, 16), Master: master}, // short line
		{Kind: ReadWord, Addr: 0, Data: make([]byte, 9), Master: master},  // too wide
		{Kind: ReadWord, Addr: 6, Data: make([]byte, 4), Master: master},  // crosses beat
		{Kind: Kill, Addr: 5, Master: master},                             // unaligned kill
		{Kind: Kind(99), Addr: 0, Master: master},                         // unknown
	}
	for i, tx := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			b.Issue(tx, func() {})
		}()
	}
	_ = eng
}

func TestBusSerialization(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, "bus0", DefaultConfig())
	mem, _ := memDev(Range{0, 4096}, 0)
	m1 := &fakeDev{}
	m2 := &fakeDev{}
	b.Attach(mem)
	b.Attach(m1)
	b.Attach(m2)
	var t1, t2 sim.Time
	b.Issue(&Transaction{Kind: ReadLine, Addr: 0, Data: make([]byte, 32), Master: m1},
		func() { t1 = eng.Now() })
	b.Issue(&Transaction{Kind: ReadLine, Addr: 32, Data: make([]byte, 32), Master: m2},
		func() { t2 = eng.Now() })
	eng.Run()
	// Each is 30+0+60 = 90ns; second must wait for first.
	if t1 != 90 || t2 != 180 {
		t.Fatalf("t1=%v t2=%v, want 90/180", t1, t2)
	}
	if b.BusyTime() != 180 {
		t.Fatalf("busy = %v", b.BusyTime())
	}
}

func TestRange(t *testing.T) {
	r := Range{Base: 0x1000, Size: 0x100}
	if !r.Contains(0x1000) || !r.Contains(0x10FF) || r.Contains(0x1100) || r.Contains(0xFFF) {
		t.Fatal("Contains wrong")
	}
	if r.Offset(0x1010) != 0x10 || r.End() != 0x1100 {
		t.Fatal("Offset/End wrong")
	}
}
