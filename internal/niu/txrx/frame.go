// Package txrx implements the TxU/RxU datapath formatting: the wire encoding
// of NIU messages into Arctic packet payloads and back. Two frame kinds
// exist, mirroring the paper's receive-side demultiplexing: data frames are
// steered to a logical receive queue, command frames are enqueued on the
// destination NIU's remote command queue and executed by CTRL without
// firmware involvement.
package txrx

import (
	"encoding/binary"
	"errors"
	"fmt"

	"startvoyager/internal/arctic"
	"startvoyager/internal/sim"
)

// Frame sizes. A data frame is an 8-byte header plus up to 88 payload bytes,
// filling Arctic's 96-byte maximum packet; command frames carry a larger
// header (target address and auxiliary field) and correspondingly less data.
const (
	DataHeaderBytes = 8
	CmdHeaderBytes  = 16
	MaxDataPayload  = arctic.MaxPacketBytes - DataHeaderBytes // 88
	MaxCmdPayload   = arctic.MaxPacketBytes - CmdHeaderBytes  // 80
)

// ErrPayloadTooLong reports a frame whose payload exceeds its kind's limit
// (MaxDataPayload, MaxCmdPayload): Encode refuses to build one, and
// DecodeInto refuses one whose header claims it, checksum or not.
var ErrPayloadTooLong = errors.New("txrx: payload too long for its frame kind")

// DecodeInto's other refusals. Each error it returns matches exactly one of
// these or ErrPayloadTooLong under errors.Is.
var (
	ErrFrameTooShort  = errors.New("txrx: frame too short")
	ErrChecksum       = errors.New("txrx: checksum mismatch")
	ErrLengthMismatch = errors.New("txrx: frame length disagrees with its header")
	ErrUnknownKind    = errors.New("txrx: unknown frame kind")
)

// refusal is a decode error that wraps its sentinel but renders only msg,
// which names the frame's particulars.
type refusal struct {
	sentinel error
	msg      string
}

func (r *refusal) Error() string { return r.msg }
func (r *refusal) Unwrap() error { return r.sentinel }

// crcTable holds CRC-8 (poly 0x07, MSB-first) remainders for every byte.
// Each frame carries its checksum at byte 1 — previously an unused pad —
// computed over the whole encoded frame with that byte held at zero. CRC-8
// detects every single-bit error, which is exactly the corruption model the
// fault plane injects; multi-bit errors are caught with probability 255/256.
var crcTable = func() [256]byte {
	var t [256]byte
	for i := 0; i < 256; i++ {
		c := byte(i)
		for b := 0; b < 8; b++ {
			if c&0x80 != 0 {
				c = c<<1 ^ 0x07
			} else {
				c <<= 1
			}
		}
		t[i] = c
	}
	return t
}()

// Checksum computes the CRC-8 of a frame's wire bytes, treating the checksum
// slot (byte 1) as zero so verification can run on the bytes as received.
//
//voyager:noalloc
func Checksum(b []byte) byte {
	var c byte
	for i, v := range b {
		if i == 1 {
			v = 0
		}
		c = crcTable[c^v]
	}
	return c
}

// Kind distinguishes frame types.
type Kind uint8

const (
	// Data frames deliver payload to a logical receive queue.
	Data Kind = iota
	// Cmd frames carry a remote command for the destination CTRL.
	Cmd
)

// CmdOp enumerates remote commands executed by the destination's CTRL.
type CmdOp uint16

const (
	// CmdWriteDram writes the payload into destination DRAM at Addr (payload
	// must be whole, aligned 32-byte lines).
	CmdWriteDram CmdOp = iota
	// CmdWriteDramCls is CmdWriteDram plus a clsSRAM state update for the
	// written lines (state in Aux) — the aBIU extension of approach 5.
	CmdWriteDramCls
	// CmdSetCls sets the clsSRAM state (Aux) for the Count lines starting at
	// the S-COMA line containing Addr.
	CmdSetCls
	// CmdNotify delivers the payload as a data message to logical queue Aux.
	CmdNotify
	// CmdWriteSram writes the payload into destination aSRAM at Addr.
	CmdWriteSram
	// CmdWriteWord writes the payload (1..8 bytes, within one beat) into
	// destination DRAM at Addr with a single word bus operation — used by
	// reflective-memory propagation of uncached stores.
	CmdWriteWord
)

// String names the command op.
func (op CmdOp) String() string {
	switch op {
	case CmdWriteDram:
		return "WriteDram"
	case CmdWriteDramCls:
		return "WriteDramCls"
	case CmdSetCls:
		return "SetCls"
	case CmdNotify:
		return "Notify"
	case CmdWriteSram:
		return "WriteSram"
	case CmdWriteWord:
		return "WriteWord"
	default:
		return fmt.Sprintf("CmdOp(%d)", uint16(op))
	}
}

// Frame is one decoded NIU message.
type Frame struct {
	Kind     Kind
	SrcNode  uint16
	LogicalQ uint16 // data frames: destination logical receive queue
	Payload  []byte

	// Command-frame fields.
	Op    CmdOp
	Addr  uint32
	Aux   uint16
	Count uint16

	// Trace is the message's causal trace context. It is sideband state —
	// never encoded on the wire (DecodeInto leaves it zero; the CTRL copies it
	// from the Arctic packet) — modeling a hardware trace tag that rides next
	// to the data and so survives payload corruption.
	Trace sim.MsgTag
}

// WireSize returns the encoded size in bytes (== the Arctic packet size).
func (f *Frame) WireSize() int {
	if f.Kind == Cmd {
		return CmdHeaderBytes + len(f.Payload)
	}
	return DataHeaderBytes + len(f.Payload)
}

// Encode serializes the frame to freshly allocated wire bytes.
func Encode(f *Frame) ([]byte, error) {
	return EncodeInto(f, nil)
}

// EncodeInto serializes the frame, reusing buf's capacity when it suffices
// (the returned slice aliases buf in that case). Callers that hand the wire
// bytes to the fabric must not reuse buf until the packet is delivered.
//
//voyager:noalloc wire bytes reuse buf's capacity when it suffices
func EncodeInto(f *Frame, buf []byte) ([]byte, error) {
	wireBytes := func(n int) []byte { //voyager:alloc-ok(helper is inlined and does not escape)
		if cap(buf) >= n {
			return buf[:n]
		}
		return make([]byte, n) //voyager:alloc-ok(grows the caller's reusable buffer once)
	}
	switch f.Kind {
	case Data:
		if len(f.Payload) > MaxDataPayload {
			return nil, fmt.Errorf("%w: data payload %d exceeds %d", ErrPayloadTooLong, len(f.Payload), MaxDataPayload) //voyager:alloc-ok(error path)
		}
		b := wireBytes(DataHeaderBytes + len(f.Payload))
		b[0] = byte(Data)
		binary.BigEndian.PutUint16(b[2:], f.SrcNode)
		binary.BigEndian.PutUint16(b[4:], f.LogicalQ)
		binary.BigEndian.PutUint16(b[6:], uint16(len(f.Payload)))
		copy(b[DataHeaderBytes:], f.Payload)
		b[1] = Checksum(b)
		return b, nil
	case Cmd:
		if len(f.Payload) > MaxCmdPayload {
			return nil, fmt.Errorf("%w: cmd payload %d exceeds %d", ErrPayloadTooLong, len(f.Payload), MaxCmdPayload) //voyager:alloc-ok(error path)
		}
		b := wireBytes(CmdHeaderBytes + len(f.Payload))
		b[0] = byte(Cmd)
		binary.BigEndian.PutUint16(b[2:], f.SrcNode)
		binary.BigEndian.PutUint16(b[4:], uint16(f.Op))
		binary.BigEndian.PutUint16(b[6:], uint16(len(f.Payload)))
		binary.BigEndian.PutUint32(b[8:], f.Addr)
		binary.BigEndian.PutUint16(b[12:], f.Aux)
		binary.BigEndian.PutUint16(b[14:], f.Count)
		copy(b[CmdHeaderBytes:], f.Payload)
		b[1] = Checksum(b)
		return b, nil
	default:
		return nil, fmt.Errorf("txrx: unknown frame kind %d", f.Kind) //voyager:alloc-ok(error path)
	}
}

// DecodeInto parses wire bytes into f, reusing f's payload capacity. Every
// field of f is overwritten (Trace is zeroed — it is sideband state the
// caller restores). On error f's contents are unspecified.
//
//voyager:noalloc payload lands in f's reused capacity
func DecodeInto(f *Frame, b []byte) error {
	if len(b) < DataHeaderBytes {
		return &refusal{ErrFrameTooShort, fmt.Sprintf("txrx: frame of %d bytes too short", len(b))} //voyager:alloc-ok(error path)
	}
	if got := Checksum(b); got != b[1] {
		return &refusal{ErrChecksum, fmt.Sprintf("txrx: checksum mismatch (got %#02x, want %#02x)", got, b[1])} //voyager:alloc-ok(error path)
	}
	pl := f.Payload
	*f = Frame{Kind: Kind(b[0]), SrcNode: binary.BigEndian.Uint16(b[2:])}
	n := int(binary.BigEndian.Uint16(b[6:]))
	switch f.Kind {
	case Data:
		if len(b) != DataHeaderBytes+n {
			return &refusal{ErrLengthMismatch, fmt.Sprintf("txrx: data frame length %d, header says %d", len(b), n)} //voyager:alloc-ok(error path)
		}
		if n > MaxDataPayload {
			return fmt.Errorf("%w: data frame header says %d, limit %d", ErrPayloadTooLong, n, MaxDataPayload) //voyager:alloc-ok(error path)
		}
		f.LogicalQ = binary.BigEndian.Uint16(b[4:])
		f.Payload = append(pl[:0], b[DataHeaderBytes:]...)
		return nil
	case Cmd:
		if len(b) < CmdHeaderBytes || len(b) != CmdHeaderBytes+n {
			return &refusal{ErrLengthMismatch, fmt.Sprintf("txrx: cmd frame length %d, header says %d", len(b), n)} //voyager:alloc-ok(error path)
		}
		if n > MaxCmdPayload {
			return fmt.Errorf("%w: cmd frame header says %d, limit %d", ErrPayloadTooLong, n, MaxCmdPayload) //voyager:alloc-ok(error path)
		}
		f.Op = CmdOp(binary.BigEndian.Uint16(b[4:]))
		f.Addr = binary.BigEndian.Uint32(b[8:])
		f.Aux = binary.BigEndian.Uint16(b[12:])
		f.Count = binary.BigEndian.Uint16(b[14:])
		f.Payload = append(pl[:0], b[CmdHeaderBytes:]...)
		return nil
	default:
		return &refusal{ErrUnknownKind, fmt.Sprintf("txrx: unknown frame kind %d", b[0])} //voyager:alloc-ok(error path)
	}
}
