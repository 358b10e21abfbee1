package txrx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// FuzzFrameFields: every wire image with a valid checksum either decodes to
// a frame that re-encodes to the same bytes and decodes to an equal frame,
// or is refused with an error that matches exactly one of the decode
// sentinels, ErrPayloadTooLong exactly when a known kind's header claims
// more payload than the kind allows and the wire length agrees with the
// claim. The input supplies the header fields, a number of bytes to cut from
// the end and the payload; the checksum is recomputed over the result, so
// inputs get past the CRC-8 to the header checks behind it.
func FuzzFrameFields(f *testing.F) {
	sentinels := []error{ErrFrameTooShort, ErrChecksum, ErrLengthMismatch, ErrPayloadTooLong, ErrUnknownKind}
	f.Fuzz(func(t *testing.T, kind byte, src, qop, length uint16, addr uint32, aux, count uint16, cut uint8, payload []byte) {
		hdr, limit := DataHeaderBytes, MaxDataPayload
		if Kind(kind) == Cmd {
			hdr, limit = CmdHeaderBytes, MaxCmdPayload
		}
		b := make([]byte, hdr+len(payload))
		b[0] = kind
		binary.BigEndian.PutUint16(b[2:], src)
		binary.BigEndian.PutUint16(b[4:], qop)
		binary.BigEndian.PutUint16(b[6:], length)
		if hdr == CmdHeaderBytes {
			binary.BigEndian.PutUint32(b[8:], addr)
			binary.BigEndian.PutUint16(b[12:], aux)
			binary.BigEndian.PutUint16(b[14:], count)
		}
		copy(b[hdr:], payload)
		b = b[:len(b)-min(int(cut), len(b))]
		if len(b) > 1 {
			b[1] = Checksum(b)
		}
		tooLong := Kind(kind) <= Cmd && len(b) == hdr+int(length) && int(length) > limit

		var fr Frame
		if err := DecodeInto(&fr, b); err != nil {
			matched := 0
			for _, s := range sentinels {
				if errors.Is(err, s) {
					matched++
				}
			}
			if matched != 1 {
				t.Fatalf("% x: DecodeInto = %v, matching %d sentinels", b, err, matched)
			}
			if errors.Is(err, ErrPayloadTooLong) != tooLong {
				t.Fatalf("% x: DecodeInto = %v; header claims %d of at most %d", b, err, length, limit)
			}
			return
		}
		if tooLong {
			t.Fatalf("% x: accepted a %d-byte payload over the %d-byte limit", b, length, limit)
		}
		re, err := EncodeInto(&fr, nil)
		if err != nil {
			t.Fatalf("% x: decoded frame %+v does not re-encode: %v", b, fr, err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("% x: re-encodes as % x", b, re)
		}
		var again Frame
		if err := DecodeInto(&again, re); err != nil || !reflect.DeepEqual(again, fr) {
			t.Fatalf("% x: re-decodes as %+v (%v), first decode %+v", b, again, err, fr)
		}
	})
}
