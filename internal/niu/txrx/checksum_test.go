package txrx

import (
	"testing"
	"testing/quick"
)

// The frame checksum exists so a corrupted wire image is rejected at the
// receiver instead of being misparsed (the fault injector flips exactly one
// bit per corruption, so single-bit coverage is the load-bearing property).

func TestChecksumDetectsEverySingleBitFlip(t *testing.T) {
	frames := []*Frame{
		{Kind: Data, SrcNode: 3, LogicalQ: 0x204, Payload: []byte{1, 2, 3, 4}},
		{Kind: Data, SrcNode: 0, LogicalQ: 0},
		{Kind: Cmd, SrcNode: 7, Op: CmdWriteDram, Addr: 0xDEADBEE0, Aux: 9, Count: 2,
			Payload: []byte{0xFF}},
	}
	for _, fr := range frames {
		b, err := Encode(fr)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(&Frame{}, b); err != nil {
			t.Fatalf("clean frame rejected: %v", err)
		}
		for bit := 0; bit < len(b)*8; bit++ {
			if bit/8 == 1 {
				continue // flipping the checksum byte itself is covered below
			}
			m := append([]byte(nil), b...)
			m[bit/8] ^= 1 << (bit % 8)
			if err := DecodeInto(&Frame{}, m); err == nil {
				t.Fatalf("%v frame: flipped bit %d went undetected", fr.Kind, bit)
			}
		}
		// A flip inside the checksum byte must also be caught.
		for bit := 8; bit < 16; bit++ {
			m := append([]byte(nil), b...)
			m[bit/8] ^= 1 << (bit % 8)
			if err := DecodeInto(&Frame{}, m); err == nil {
				t.Fatalf("%v frame: checksum-byte bit %d went undetected", fr.Kind, bit)
			}
		}
	}
}

func TestChecksumStable(t *testing.T) {
	// Encode must be deterministic: same frame, same wire bytes (the
	// byte-identical-trace contract reaches down to the checksum).
	f := func(src, lq uint16, payload []byte) bool {
		if len(payload) > MaxDataPayload {
			payload = payload[:MaxDataPayload]
		}
		fr := &Frame{Kind: Data, SrcNode: src, LogicalQ: lq, Payload: payload}
		a, err1 := Encode(fr)
		b, err2 := Encode(fr)
		if err1 != nil || err2 != nil {
			return false
		}
		return string(a) == string(b) && a[1] == Checksum(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
