package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// This file is a minimal reader for the pprof profile format that
// runtime/pprof writes: a gzip-compressed protobuf Profile message. It keeps
// only what the layer ledger needs — each sample's values and its stack as
// function names, leaf first — and rejects malformed input with an error.

// profile is a decoded pprof profile.
type profile struct {
	types   []string // "type/unit" of each sample value, e.g. "cpu/nanoseconds"
	samples []profSample
}

// profSample is one stack sample.
type profSample struct {
	frames []string // function names, leaf first, inlined callees before callers
	values []int64
}

// valueIndex returns the position of the given sample value type
// ("cpu/nanoseconds") in every sample's values.
func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.types {
		if t == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("pprof: profile has no %q samples (types %v)", typ, p.types)
}

// parseProfile decodes a profile, gzip-compressed or not.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		strs    []string
		types   [][2]uint64 // string indices of (type, unit)
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id -> name string index
	)
	d := &decoder{b: data}
	for num, wire, ok := d.field(); ok; num, wire, ok = d.field() {
		if wire != 2 || num < 1 || num > 6 || num == 3 {
			d.skip(wire)
			continue
		}
		m := d.message()
		switch num {
		case 1: // ValueType sample_type
			var t [2]uint64
			for n, w, ok := m.field(); ok; n, w, ok = m.field() {
				if (n == 1 || n == 2) && w == 0 {
					t[n-1] = m.varint()
				} else {
					m.skip(w)
				}
			}
			types = append(types, t)
		case 2: // Sample
			var s rawSample
			for n, w, ok := m.field(); ok; n, w, ok = m.field() {
				switch n {
				case 1:
					s.locs = m.uints(w, s.locs)
				case 2:
					s.values = m.uints(w, s.values)
				default:
					m.skip(w)
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for n, w, ok := m.field(); ok; n, w, ok = m.field() {
				switch {
				case n == 1 && w == 0:
					id = m.varint()
				case n == 4 && w == 2: // Line
					line := m.message()
					for ln, lw, ok := line.field(); ok; ln, lw, ok = line.field() {
						if ln == 1 && lw == 0 {
							fns = append(fns, line.varint())
						} else {
							line.skip(lw)
						}
					}
					m.absorb(line)
				default:
					m.skip(w)
				}
			}
			locs[id] = fns
		case 5: // Function
			var id, name uint64
			for n, w, ok := m.field(); ok; n, w, ok = m.field() {
				switch {
				case n == 1 && w == 0:
					id = m.varint()
				case n == 2 && w == 0:
					name = m.varint()
				default:
					m.skip(w)
				}
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(m.b))
			m.b = nil
		}
		d.absorb(m)
	}
	if d.err != nil {
		return nil, d.err
	}

	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("pprof: string index %d out of range", i)
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, t := range types {
		typ, err := str(t[0])
		if err != nil {
			return nil, err
		}
		unit, err := str(t[1])
		if err != nil {
			return nil, err
		}
		p.types = append(p.types, typ+"/"+unit)
	}
	for _, s := range samples {
		if len(s.values) != len(p.types) {
			return nil, fmt.Errorf("pprof: sample has %d values for %d types", len(s.values), len(p.types))
		}
		ps := profSample{values: make([]int64, len(s.values))}
		for i, v := range s.values {
			ps.values[i] = int64(v)
		}
		for _, l := range s.locs {
			fns, ok := locs[l]
			if !ok {
				return nil, fmt.Errorf("pprof: sample references unknown location %d", l)
			}
			for _, f := range fns {
				nameIdx, ok := funcs[f]
				if !ok {
					return nil, fmt.Errorf("pprof: location %d references unknown function %d", l, f)
				}
				name, err := str(nameIdx)
				if err != nil {
					return nil, err
				}
				ps.frames = append(ps.frames, name)
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// decoder reads the protobuf wire format. The first malformed read records
// an error and empties the buffer, so every later read sees end of message.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// absorb propagates a sub-message decoder's error.
func (d *decoder) absorb(sub *decoder) {
	if sub.err != nil {
		d.fail(sub.err)
	}
}

func (d *decoder) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(d.b) == 0 {
			d.fail(errors.New("pprof: truncated varint"))
			return 0
		}
		c := d.b[0]
		d.b = d.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	d.fail(errors.New("pprof: varint overflows 64 bits"))
	return 0
}

// field reads the next field key. ok is false at the end of the message and
// after an error.
func (d *decoder) field() (num, wire int, ok bool) {
	if len(d.b) == 0 {
		return 0, 0, false
	}
	key := d.varint()
	return int(key >> 3), int(key & 7), d.err == nil
}

// take consumes n bytes.
func (d *decoder) take(n uint64) []byte {
	if n > uint64(len(d.b)) {
		d.fail(errors.New("pprof: truncated field"))
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// message returns a decoder over the length-delimited field at the cursor.
func (d *decoder) message() *decoder {
	return &decoder{b: d.take(d.varint())}
}

func (d *decoder) skip(wire int) {
	switch wire {
	case 0:
		d.varint()
	case 1:
		d.take(8)
	case 2:
		d.take(d.varint())
	case 5:
		d.take(4)
	default:
		d.fail(fmt.Errorf("pprof: unsupported wire type %d", wire))
	}
}

// uints appends one element of a repeated integer field, or all elements of
// its packed encoding.
func (d *decoder) uints(wire int, dst []uint64) []uint64 {
	switch wire {
	case 0:
		return append(dst, d.varint())
	case 2:
		m := d.message()
		for len(m.b) > 0 {
			dst = append(dst, m.varint())
		}
		d.absorb(m)
		return dst
	default:
		d.fail(fmt.Errorf("pprof: wire type %d for an integer field", wire))
		return dst
	}
}
