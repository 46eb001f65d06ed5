// Package frame holds the bounded binary primitives a worker's two wire
// formats are built from: the engine's table stream (spill run files and
// /query answers) and the federation's /localrun step envelope. It knows
// no column or message types.
//
// An Encoder appends little-endian fixed-width integers and varints to a
// byte slice. A Decoder reads them back from one byte slice: the first
// failure sticks and later reads yield zero values, so callers check the
// error once; every element count is bounded by the bytes left, so a
// forged length allocates nothing; and Finish rejects trailing bytes, so a
// cut or padded input is an error, never a shorter value.
package frame

import (
	"encoding/binary"
	"fmt"
)

// Encoder appends fields to Buf.
type Encoder struct{ Buf []byte }

func (e *Encoder) U32(x uint32)     { e.Buf = binary.LittleEndian.AppendUint32(e.Buf, x) }
func (e *Encoder) U64(x uint64)     { e.Buf = binary.LittleEndian.AppendUint64(e.Buf, x) }
func (e *Encoder) Uvarint(x uint64) { e.Buf = binary.AppendUvarint(e.Buf, x) }
func (e *Encoder) Varint(x int64)   { e.Buf = binary.AppendVarint(e.Buf, x) }

// Decoder reads fields from one byte slice.
type Decoder struct {
	buf  []byte
	off  int
	err  error
	what string
}

// NewDecoder decodes buf; what names it in errors ("frame", "step
// envelope").
func NewDecoder(buf []byte, what string) Decoder { return Decoder{buf: buf, what: what} }

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Offset returns the bytes consumed so far.
func (d *Decoder) Offset() int { return d.off }

// Rest returns the bytes not consumed yet, without consuming them.
func (d *Decoder) Rest() []byte { return d.buf[d.off:] }

// Fail records err, or a corrupt-input error when err is nil, unless a
// failure already stuck.
func (d *Decoder) Fail(err error) {
	switch {
	case d.err != nil:
	case err != nil:
		d.err = err
	default:
		d.err = fmt.Errorf("corrupt %s at byte %d of %d", d.what, d.off, len(d.buf))
	}
}

// Next returns the next n bytes, capacity clipped, or nil once the input
// runs short.
func (d *Decoder) Next(n uint64) []byte {
	if d.err != nil || n > uint64(len(d.buf)-d.off) {
		d.Fail(nil)
		return nil
	}
	d.off += int(n)
	return d.buf[d.off-int(n) : d.off : d.off]
}

func (d *Decoder) U8() byte {
	if b := d.Next(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *Decoder) U32() uint32 {
	if b := d.Next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *Decoder) U64() uint64 {
	if b := d.Next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.Fail(nil)
		return 0
	}
	d.off += n
	return x
}

// Varint undoes Encoder.Varint's zigzag encoding.
func (d *Decoder) Varint() int64 { x := d.Uvarint(); return int64(x>>1) ^ -int64(x&1) }

// Bound returns n if at least size bytes per element are left, and fails
// otherwise: the check every allocation sized by the input passes through.
func (d *Decoder) Bound(n uint64, size int) int {
	if d.err == nil && n <= uint64((len(d.buf)-d.off)/size) {
		return int(n)
	}
	d.Fail(nil)
	return 0
}

// Finish fails unless the input decoded cleanly and completely.
func (d *Decoder) Finish() error {
	if d.off != len(d.buf) {
		d.Fail(fmt.Errorf("%d trailing bytes in %s", len(d.buf)-d.off, d.what))
	}
	return d.err
}
