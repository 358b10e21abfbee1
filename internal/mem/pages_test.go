package mem

import (
	"bytes"
	"encoding/binary"
	"testing"

	"startvoyager/internal/bus"
)

// pattern returns n bytes counting up from val, so a misplaced byte shows.
func pattern(n int, val byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = val + byte(i)
	}
	return b
}

// panics reports whether fn panicked.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// fuzzBase is where the fuzzed DRAM sits, so records can address below it.
const fuzzBase = 0x100000

// dramOp applies one decoded record to the DRAM through its backdoor or its
// bus claim, and returns what it read.
func dramOp(d *DRAM, op byte, lo, n int, val byte, dst int) []byte {
	addr := uint32(fuzzBase + lo)
	switch op % 6 {
	case 0:
		d.Poke(addr, pattern(n, val))
	case 5: // zeros: stored over data, skipped where nothing was written
		d.Poke(addr, make([]byte, n))
	case 1:
		buf := pattern(n, val) // dirty, so a sub-page that reads no zeros shows
		d.Peek(addr, buf)
		return buf
	case 2: // copy
		buf := make([]byte, n)
		d.Peek(addr, buf)
		d.Poke(uint32(fuzzBase+dst), buf)
	default: // a line read or write claimed on the bus, clamped at the end
		kind := bus.ReadLine
		if op%6 == 4 {
			kind = bus.WriteLine
		}
		tx := &bus.Transaction{Kind: kind, Addr: addr, Data: pattern(bus.LineSize, val)}
		if s := d.SnoopBus(tx); s.Action == bus.Claim {
			s.Serve(tx)
			return tx.Data
		}
	}
	return nil
}

// dense is the reference: a []byte holding the DRAM's bytes.
type dense []byte

// at is the n bytes at offset lo that Peek and Poke address. They panic
// unless lo falls inside the DRAM and the n bytes fit, the second check
// being the slice expression's.
func (r dense) at(lo, n int) []byte {
	if lo < 0 || lo >= len(r) {
		panic("address outside the DRAM")
	}
	return r[lo : lo+n]
}

func denseOp(r dense, op byte, lo, n int, val byte, dst int) []byte {
	switch op % 6 {
	case 0:
		copy(r.at(lo, n), pattern(n, val))
	case 5:
		clear(r.at(lo, n))
	case 1:
		return append([]byte(nil), r.at(lo, n)...)
	case 2:
		buf := append([]byte(nil), r.at(lo, n)...)
		copy(r.at(dst, n), buf)
	default:
		if lo < 0 || lo >= len(r) {
			return nil // unclaimed
		}
		line := pattern(bus.LineSize, val)
		mem := r[lo:min(lo+bus.LineSize, len(r))]
		if op%6 == 4 {
			copy(mem, line)
		} else {
			copy(line, mem)
		}
		return line
	}
	return nil
}

// FuzzDRAMPages: a sub-paged DRAM behaves as a dense zero-initialized
// array. The input is a 3-byte DRAM size (up to three 64 KB pages) followed
// by 10-byte records (op, offset, length, value, second offset). The ops
// write a pattern, read, copy, read or write a line on the bus, and write
// zeros. Offsets
// reach a sub-page below the DRAM and past its end, and lengths span up to
// three sub-pages, so records straddle sub-page and page boundaries. Each
// record runs against the DRAM and against a []byte of the same size: every
// read must match, and the DRAM must panic exactly when the reference's
// bounds check does.
func FuzzDRAMPages(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		u24 := func(b []byte) int { return int(b[0])<<16 | int(b[1])<<8 | int(b[2]) }
		size := 1 + u24(data)%(3*pageSize)
		d, ref := New(bus.Range{Base: fuzzBase, Size: uint32(size)}, 60), make(dense, size)
		span := size + 2*subSize
		for i := 3; i+10 <= len(data); i += 10 {
			r := data[i : i+10]
			op, val := r[0], r[6]
			lo := u24(r[1:])%span - subSize
			n := int(binary.BigEndian.Uint16(r[4:])) % (3 * subSize)
			dst := u24(r[7:])%span - subSize
			var got, want []byte
			gotPanic := panics(func() { got = dramOp(d, op, lo, n, val, dst) })
			wantPanic := panics(func() { want = denseOp(ref, op, lo, n, val, dst) })
			if gotPanic != wantPanic {
				t.Fatalf("record %d (op %d off %d n %d dst %d, size %d): DRAM panicked %v, reference %v",
					i/10, op%6, lo, n, dst, size, gotPanic, wantPanic)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("record %d (op %d off %d n %d dst %d, size %d): DRAM read %x, reference %x",
					i/10, op%6, lo, n, dst, size, got, want)
			}
		}
		all := pattern(size, 1)
		d.Peek(fuzzBase, all)
		if !bytes.Equal(all, ref) {
			t.Fatal("DRAM contents differ from the reference")
		}
	})
}
