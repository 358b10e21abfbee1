package sram

import (
	"bytes"
	"encoding/binary"
	"testing"
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

// bankOp applies one decoded record to the paged bank and returns what it
// read.
func bankOp(s *SRAM, op byte, off uint32, n int, val byte, dst uint32) []byte {
	switch op % 5 {
	case 0:
		s.Write(off, pattern(n, val))
	case 1:
		buf := pattern(n, val) // dirty, so a page that reads no zeros shows
		s.Read(off, buf)
		return buf
	case 2:
		return []byte{s.ByteAt(off)}
	case 3:
		return s.Append([]byte{val}, off, n)
	default: // copy
		s.Write(dst, s.Append(nil, off, n))
	}
	return nil
}

// denseOp applies the same record to a dense array; its slice expressions
// are the reference bounds check.
func denseOp(ref []byte, op byte, off uint32, n int, val byte, dst uint32) []byte {
	switch op % 5 {
	case 0:
		copy(ref[off:int(off)+n], pattern(n, val))
	case 1:
		return append([]byte(nil), ref[off:int(off)+n]...)
	case 2:
		return []byte{ref[off]}
	case 3:
		return append([]byte{val}, ref[off:int(off)+n]...)
	default:
		tmp := append([]byte(nil), ref[off:int(off)+n]...)
		copy(ref[dst:int(dst)+n], tmp)
	}
	return nil
}

// FuzzSRAMPages: a paged bank behaves as a dense zero-initialized array.
// The input is a 2-byte bank size followed by 8-byte records (op, offset,
// length, value, second offset). Offsets reach a page past the end of the
// bank and lengths span up to three pages, so records straddle page
// boundaries and the end of the bank. Each record runs against the bank and
// against a []byte of the same size: every read must match, and the bank
// must panic exactly when the reference's slice bounds check does.
func FuzzSRAMPages(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		size := 1 + int(binary.BigEndian.Uint16(data))%(8*pageSize)
		s, ref := New("fuzz", size), make([]byte, size)
		span := uint32(size + pageSize)
		for i := 2; i+8 <= len(data); i += 8 {
			r := data[i : i+8]
			op, val := r[0], r[5]
			off := uint32(binary.BigEndian.Uint16(r[1:])) % span
			n := int(binary.BigEndian.Uint16(r[3:])) % (3 * pageSize)
			dst := uint32(binary.BigEndian.Uint16(r[6:])) % span
			var got, want []byte
			gotPanic := panics(func() { got = bankOp(s, op, off, n, val, dst) })
			wantPanic := panics(func() { want = denseOp(ref, op, off, n, val, dst) })
			if gotPanic != wantPanic {
				t.Fatalf("record %d (op %d off %#x n %d dst %#x, size %#x): bank panicked %v, reference %v",
					i/8, op%5, off, n, dst, size, gotPanic, wantPanic)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("record %d (op %d off %#x n %d dst %#x, size %#x): bank read %x, reference %x",
					i/8, op%5, off, n, dst, size, got, want)
			}
		}
		all := pattern(size, 1)
		s.Read(0, all)
		if !bytes.Equal(all, ref) {
			t.Fatal("bank contents differ from the reference")
		}
	})
}
