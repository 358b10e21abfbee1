package txrx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"startvoyager/internal/arctic"
)

func TestDataRoundTrip(t *testing.T) {
	f := &Frame{Kind: Data, SrcNode: 7, LogicalQ: 300, Payload: []byte("hello")}
	b, err := EncodeInto(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != DataHeaderBytes+5 {
		t.Fatalf("wire size %d", len(b))
	}
	var g Frame
	if err := DecodeInto(&g, b); err != nil {
		t.Fatal(err)
	}
	if g.Kind != Data || g.SrcNode != 7 || g.LogicalQ != 300 || !bytes.Equal(g.Payload, f.Payload) {
		t.Fatalf("decoded %+v", g)
	}
}

func TestCmdRoundTrip(t *testing.T) {
	f := &Frame{Kind: Cmd, SrcNode: 3, Op: CmdWriteDramCls, Addr: 0x12345678,
		Aux: 2, Count: 4, Payload: make([]byte, 64)}
	b, err := EncodeInto(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	var g Frame
	if err := DecodeInto(&g, b); err != nil {
		t.Fatal(err)
	}
	if g.Op != CmdWriteDramCls || g.Addr != 0x12345678 || g.Aux != 2 || g.Count != 4 ||
		len(g.Payload) != 64 {
		t.Fatalf("decoded %+v", g)
	}
}

func TestMaxSizesFitArctic(t *testing.T) {
	d := &Frame{Kind: Data, Payload: make([]byte, MaxDataPayload)}
	b, err := EncodeInto(d, nil)
	if err != nil || len(b) != arctic.MaxPacketBytes {
		t.Fatalf("max data frame: %d bytes, err %v", len(b), err)
	}
	c := &Frame{Kind: Cmd, Payload: make([]byte, MaxCmdPayload)}
	b, err = EncodeInto(c, nil)
	if err != nil || len(b) != arctic.MaxPacketBytes {
		t.Fatalf("max cmd frame: %d bytes, err %v", len(b), err)
	}
}

func TestOversizeRejected(t *testing.T) {
	if _, err := EncodeInto(&Frame{Kind: Data, Payload: make([]byte, MaxDataPayload+1)}, nil); err == nil {
		t.Fatal("oversize data accepted")
	}
	if _, err := EncodeInto(&Frame{Kind: Cmd, Payload: make([]byte, MaxCmdPayload+1)}, nil); err == nil {
		t.Fatal("oversize cmd accepted")
	}
	if _, err := EncodeInto(&Frame{Kind: Kind(9)}, nil); err == nil {
		t.Fatal("bad kind accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},                      // too short
		{9, 0, 0, 0, 0, 0, 0, 0}, // bad kind
		{0, 0, 0, 0, 0, 0, 0, 5}, // data length mismatch
		{1, 0, 0, 0, 0, 0, 0, 0}, // cmd too short for cmd header
	}
	for i, b := range cases {
		if err := DecodeInto(&Frame{}, b); err == nil {
			t.Errorf("case %d: decoded garbage", i)
		}
	}
}

func TestCmdOpString(t *testing.T) {
	for op, want := range map[CmdOp]string{
		CmdWriteDram: "WriteDram", CmdWriteDramCls: "WriteDramCls",
		CmdSetCls: "SetCls", CmdNotify: "Notify", CmdWriteSram: "WriteSram",
		CmdWriteWord: "WriteWord",
	} {
		if op.String() != want {
			t.Errorf("%d.String() = %q", op, op.String())
		}
	}
}

// Property: Encode/DecodeInto is the identity on valid frames.
func TestRoundTripProperty(t *testing.T) {
	f := func(kind bool, src, lq, aux, count uint16, addr uint32, op uint8, payload []byte) bool {
		fr := &Frame{SrcNode: src}
		if kind {
			fr.Kind = Data
			fr.LogicalQ = lq
			if len(payload) > MaxDataPayload {
				payload = payload[:MaxDataPayload]
			}
		} else {
			fr.Kind = Cmd
			fr.Op = CmdOp(op % 6)
			fr.Addr = addr
			fr.Aux = aux
			fr.Count = count
			if len(payload) > MaxCmdPayload {
				payload = payload[:MaxCmdPayload]
			}
		}
		fr.Payload = payload
		b, err := EncodeInto(fr, nil)
		if err != nil {
			return false
		}
		var g Frame
		if err := DecodeInto(&g, b); err != nil {
			return false
		}
		if g.Kind != fr.Kind || g.SrcNode != fr.SrcNode || !bytes.Equal(g.Payload, fr.Payload) {
			return false
		}
		if fr.Kind == Data {
			return g.LogicalQ == fr.LogicalQ
		}
		return g.Op == fr.Op && g.Addr == fr.Addr && g.Aux == fr.Aux && g.Count == fr.Count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRejectsOversizedPayload: a frame whose header claims more
// payload than its kind allows is refused with ErrPayloadTooLong even when
// its length and checksum agree, exactly as Encode refuses to build it.
func TestDecodeRejectsOversizedPayload(t *testing.T) {
	for _, tc := range []struct {
		kind   Kind
		header int
		max    int
	}{
		{Data, DataHeaderBytes, MaxDataPayload},
		{Cmd, CmdHeaderBytes, MaxCmdPayload},
	} {
		n := tc.max + 1
		b := make([]byte, tc.header+n)
		b[0] = byte(tc.kind)
		binary.BigEndian.PutUint16(b[6:], uint16(n))
		b[1] = Checksum(b)
		var f Frame
		if err := DecodeInto(&f, b); !errors.Is(err, ErrPayloadTooLong) {
			t.Errorf("kind %d: DecodeInto(%d-byte payload) = %v, want ErrPayloadTooLong", tc.kind, n, err)
		}
		if _, err := EncodeInto(&Frame{Kind: tc.kind, Payload: make([]byte, n)}, nil); !errors.Is(err, ErrPayloadTooLong) {
			t.Errorf("kind %d: EncodeInto(%d-byte payload) = %v, want ErrPayloadTooLong", tc.kind, n, err)
		}
	}
}

// TestDecodeRefusalsNamed: each kind of bad frame is refused with its own
// sentinel, and the message (which CTRL's rx-garbage trace instant carries)
// names the frame's particulars.
func TestDecodeRefusalsNamed(t *testing.T) {
	sealed := func(b []byte) []byte { b[1] = Checksum(b); return b }
	badSum := sealed([]byte{0, 0, 0, 1, 0, 2, 0, 0})
	badSum[1] ^= 0xFF
	tooLong := make([]byte, DataHeaderBytes+MaxDataPayload+1)
	binary.BigEndian.PutUint16(tooLong[6:], MaxDataPayload+1)
	for _, tc := range []struct {
		name string
		b    []byte
		want error
		msg  string
	}{
		{"short", []byte{0}, ErrFrameTooShort, "txrx: frame of 1 bytes too short"},
		{"checksum", badSum, ErrChecksum, "txrx: checksum mismatch (got 0xb4, want 0x4b)"},
		{"data-length", sealed([]byte{0, 0, 0, 0, 0, 0, 0, 5}), ErrLengthMismatch,
			"txrx: data frame length 8, header says 5"},
		{"cmd-length", sealed([]byte{1, 0, 0, 0, 0, 0, 0, 0}), ErrLengthMismatch,
			"txrx: cmd frame length 8, header says 0"},
		{"kind", sealed([]byte{9, 0, 0, 0, 0, 0, 0, 0}), ErrUnknownKind, "txrx: unknown frame kind 9"},
		{"too-long", sealed(tooLong), ErrPayloadTooLong,
			"txrx: payload too long for its frame kind: data frame header says 89, limit 88"},
	} {
		var f Frame
		err := DecodeInto(&f, tc.b)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: DecodeInto = %v, want %v", tc.name, err, tc.want)
			continue
		}
		if err.Error() != tc.msg {
			t.Errorf("%s: message %q, want %q", tc.name, err.Error(), tc.msg)
		}
	}
}
