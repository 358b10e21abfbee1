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

// imageData returns n bytes that differ from page to page, so an image page
// read at the wrong page number shows.
func imageData(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i) ^ byte(i>>pageShift)*0x35 ^ 0xA5
	}
	return b
}

// FuzzSRAMPages: a paged bank behaves as a dense array initialized from its
// image, or zeroed without one. The input is a 2-byte bank size whose top
// bit selects a bank over an image, then (in image mode) a 2-byte image
// length, then 8-byte records (op, offset, length, value, second offset).
// Offsets reach a page past the end of the bank and lengths span up to three
// pages, so records straddle page boundaries, the end of the image and the
// end of the bank. Each record runs against the bank and against a []byte
// of the same size: every read must match, and the bank must panic exactly
// when the reference's slice bounds check does. Writes to the bank must
// never reach its image: a second bank over it still reads the image.
func FuzzSRAMPages(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		word := binary.BigEndian.Uint16(data)
		size := 1 + int(word)%(8*pageSize)
		data = data[2:]
		var img *Image
		var imgData []byte
		ref := make([]byte, size)
		if word&0x8000 != 0 {
			if len(data) < 2 {
				return
			}
			imgData = imageData(1 + int(binary.BigEndian.Uint16(data))%size)
			data = data[2:]
			img = NewImage(imgData)
			copy(ref, imgData)
		}
		s := NewOver("fuzz", size, img)
		span := uint32(size + pageSize)
		for i := 0; i+8 <= len(data); i += 8 {
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
		if img != nil {
			fresh, want := pattern(size, 1), make([]byte, size)
			copy(want, imgData)
			NewOver("fresh", size, img).Read(0, fresh)
			if !bytes.Equal(fresh, want) {
				t.Fatal("writes to a bank changed its image")
			}
		}
	})
}

// TestImageLargerThanBankPanics: an image must fit the banks it backs.
func TestImageLargerThanBankPanics(t *testing.T) {
	img := NewImage(make([]byte, 2*pageSize+1))
	if !panics(func() { NewOver("small", 2*pageSize, img) }) {
		t.Fatal("a bank smaller than its image was built")
	}
	NewOver("fits", 2*pageSize+1, img)
}
