package sram

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestReadWrite(t *testing.T) {
	s := New("aSRAM", 1024)
	if s.Name() != "aSRAM" || s.Size() != 1024 {
		t.Fatal("metadata wrong")
	}
	s.Write(100, []byte{1, 2, 3})
	buf := make([]byte, 3)
	s.Read(100, buf)
	if !bytes.Equal(buf, []byte{1, 2, 3}) {
		t.Fatalf("got %v", buf)
	}
	if s.ByteAt(101) != 2 {
		t.Fatal("ReadByte wrong")
	}
	got := s.Append([]byte{7}, 100, 3)
	if !bytes.Equal(got, []byte{7, 1, 2, 3}) {
		t.Fatalf("Append got %v", got)
	}
	got[1] = 9
	if s.ByteAt(100) != 1 {
		t.Fatal("Append returned a view, not a copy")
	}
}

func TestBoundsPanics(t *testing.T) {
	s := New("x", 64)
	cases := []func(){
		func() { s.Read(60, make([]byte, 8)) },
		func() { s.Write(64, []byte{1}) },
		func() { s.Append(nil, 0, 65) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestCls(t *testing.T) {
	c := NewCls(8)
	if c.Lines() != 8 {
		t.Fatal("lines wrong")
	}
	if c.Get(0) != CLInvalid {
		t.Fatal("initial state not invalid")
	}
	c.Set(3, CLReadWrite)
	if c.Get(3) != CLReadWrite {
		t.Fatal("set/get failed")
	}
	c.SetRange(2, 6, CLReadOnly)
	for i := 2; i < 6; i++ {
		if c.Get(i) != CLReadOnly {
			t.Fatalf("line %d = %v", i, c.Get(i))
		}
	}
	if c.Get(6) != CLInvalid {
		t.Fatal("SetRange overshot")
	}
}

// TestClsNibbles: the state memory packs two 4-bit states per byte. Every
// one of the 16 states round-trips on an even and on an odd line, an odd
// line count keeps its last line, and a write to one line leaves the other
// state in its byte as it was.
func TestClsNibbles(t *testing.T) {
	c := NewCls(7)
	c.Set(6, CLReadWrite) // the last line, alone in its byte
	for _, line := range []int{2, 3} {
		other := line ^ 1
		for neighbour := LineState(0); neighbour < 16; neighbour++ {
			c.Set(other, neighbour)
			for st := LineState(0); st < 16; st++ {
				c.Set(line, st)
				if got := c.Get(line); got != st {
					t.Fatalf("line %d holds %v after Set(%v)", line, got, st)
				}
				if got := c.Get(other); got != neighbour {
					t.Fatalf("Set(%d, %v) changed line %d from %v to %v", line, st, other, neighbour, got)
				}
			}
		}
	}
	for _, line := range []int{0, 1, 4, 5} {
		if got := c.Get(line); got != CLInvalid {
			t.Errorf("untouched line %d holds %v", line, got)
		}
	}
	if got := c.Get(6); got != CLReadWrite {
		t.Errorf("last line holds %v, want %v", got, CLReadWrite)
	}
	if len(c.states) != 4 {
		t.Errorf("7 lines take %d bytes, want 4", len(c.states))
	}
}

func TestClsPanics(t *testing.T) {
	c := NewCls(4)
	for i, fn := range []func(){
		func() { c.Get(-1) },
		func() { c.Set(4, CLInvalid) },
		func() { c.Set(0, LineState(16)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestLineStateString(t *testing.T) {
	if CLInvalid.String() != "inv" || CLReadWrite.String() != "rw" ||
		CLPending.String() != "pend" || CLReadOnly.String() != "ro" {
		t.Fatal("names wrong")
	}
	if LineState(9).String() != "state9" {
		t.Fatal("custom state name wrong")
	}
}

// Property: writes land exactly where addressed (no smearing).
func TestWriteIsolationProperty(t *testing.T) {
	f := func(off uint16, val byte) bool {
		s := New("p", 1<<16)
		s.Write(uint32(off), []byte{val})
		for i := uint32(0); i < 1<<16; i++ {
			want := byte(0)
			if i == uint32(off) {
				want = val
			}
			if s.ByteAt(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
