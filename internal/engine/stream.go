package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"mip/internal/engine/frame"
)

// The table stream is the format of both spill run files and a worker's
// /query answer:
//
//	"MIPT" | u8 version | frame(header) | frame(batch)* | u32 0 | u64 rows
//
// A frame is a non-zero u32 size and that many bytes. The header is u32
// ncols, then per column u8 kind and a u32-length name (empty in run
// files). A batch is
//
//	u32 rows | u32 ncols | per column: u8 kind | u8 hasNulls | [nulls] | payload
//
// where nulls packs (rows+7)/8 bytes, bit i set = row i NULL; F64 and I64
// payloads are 8*rows bytes (floats as IEEE bits, so NaN payloads and -0
// survive), Bool rows bytes, and Str a u32-counted dictionary of the
// batch's strings in first-appearance order (u32 length and bytes each)
// then 4*rows code bytes. Everything is little-endian. The trailer's row
// count turns a stream cut anywhere, even between batches, into an error
// rather than a shorter table.
const (
	streamMagic   = "MIPT"
	streamVersion = 1
)

// streamKind numbers the column types as the stream does: F64, I64, Bool,
// Str (String and Bool trade places).
var streamKind = [...]byte{Float64: 0, Int64: 1, String: 3, Bool: 2}

// tableWriter encodes one table stream onto an io.Writer, one Write call
// per frame.
type tableWriter struct {
	w     io.Writer
	rows  uint64
	bytes int64
	e     frame.Encoder
}

// newTableWriter writes the stream header for schema to w.
func newTableWriter(w io.Writer, schema Schema) (*tableWriter, error) {
	tw := &tableWriter{w: w, e: frame.Encoder{Buf: append([]byte(streamMagic), streamVersion, 0, 0, 0, 0)}}
	tw.e.U32(uint32(len(schema)))
	for _, c := range schema {
		tw.e.Buf = append(tw.e.Buf, streamKind[c.Type])
		tw.e.U32(uint32(len(c.Name)))
		tw.e.Buf = append(tw.e.Buf, c.Name...)
	}
	if err := tw.flush(len(streamMagic) + 1); err != nil {
		return nil, err
	}
	return tw, nil
}

// flush writes the buffer out, first filling in the size of the frame
// whose u32 size field sits at offset at (none when at < 0).
func (tw *tableWriter) flush(at int) error {
	buf := tw.e.Buf
	if at >= 0 {
		binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	}
	n, err := tw.w.Write(buf)
	tw.bytes += int64(n)
	tw.e.Buf = buf[:0]
	return err
}

// write appends the vectors (equal lengths, shaped like the header) as one
// batch frame.
func (tw *tableWriter) write(vs []*Vector) error {
	rows := 0
	if len(vs) > 0 {
		rows = vs[0].Len()
	}
	// Reserve 9 bytes a cell (the widest payload plus its null bit) up front;
	// only string dictionaries can still grow the buffer.
	e := &tw.e
	e.Buf = append(slices.Grow(e.Buf[:0], 16+9*rows*len(vs)), 0, 0, 0, 0)
	e.U32(uint32(rows))
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		if v.valid.hasNull(rows) {
			e.Buf = v.valid.appendNulls(append(e.Buf, streamKind[v.typ], 1), rows)
		} else {
			e.Buf = append(e.Buf, streamKind[v.typ], 0)
		}
		switch v.typ {
		case Float64:
			for _, x := range v.f64[:rows] {
				e.U64(math.Float64bits(x))
			}
		case Int64:
			for _, x := range v.i64[:rows] {
				e.U64(uint64(x))
			}
		case Bool:
			for _, x := range v.b[:rows] {
				if x {
					e.Buf = append(e.Buf, 1)
				} else {
					e.Buf = append(e.Buf, 0)
				}
			}
		case String:
			// Re-encode against the batch's own dictionary, so a batch never
			// serializes a large shared one.
			trans := make([]uint32, v.dict.Size()) // batch code + 1; 0 = not seen yet
			var order []int32
			for _, code := range v.codes[:rows] {
				if trans[code] == 0 {
					order = append(order, code)
					trans[code] = uint32(len(order))
				}
			}
			e.U32(uint32(len(order)))
			for _, code := range order {
				s := v.dict.Value(code)
				e.U32(uint32(len(s)))
				e.Buf = append(e.Buf, s...)
			}
			for _, code := range v.codes[:rows] {
				e.U32(trans[code] - 1)
			}
		}
	}
	tw.rows += uint64(rows)
	return tw.flush(0)
}

// close writes the end-of-stream trailer; the underlying writer stays open.
func (tw *tableWriter) close() error {
	tw.e.Buf = append(tw.e.Buf[:0], 0, 0, 0, 0)
	tw.e.U64(tw.rows)
	return tw.flush(-1)
}

// tableReader decodes one table stream from an io.Reader. Malformed input
// (a bad magic, version, kind, column count, length, dictionary or
// trailer) is an error, never a panic, and costs memory in proportion to
// its size.
type tableReader struct {
	r      io.Reader
	schema Schema
	rows   uint64
	done   bool
	buf    bytes.Buffer
}

// newTableReader reads and validates the stream header from r.
func newTableReader(r io.Reader) (*tableReader, error) {
	tr := &tableReader{r: r}
	pre, err := tr.read(len(streamMagic) + 1)
	if err != nil {
		return nil, err
	}
	if string(pre[:len(streamMagic)]) != streamMagic {
		return nil, fmt.Errorf("engine: not a table stream (magic %q)", pre[:len(streamMagic)])
	}
	if pre[len(streamMagic)] != streamVersion {
		return nil, fmt.Errorf("engine: unsupported stream version %d", pre[len(streamMagic)])
	}
	d, err := tr.frame()
	if err != nil {
		return nil, err
	}
	tr.schema = make(Schema, d.Bound(uint64(d.U32()), 5)) // ≥ kind + name length per column
	for i := range tr.schema {
		kind := d.U8()
		t := slices.Index(streamKind[:], kind)
		if t < 0 {
			return nil, fmt.Errorf("engine: unknown column kind %d in header", kind)
		}
		tr.schema[i] = ColumnDef{Name: string(d.Next(uint64(d.U32()))), Type: Type(t)}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return tr, nil
}

// read returns the next n bytes, valid until the next read. The buffer
// grows only as bytes arrive, so a forged length costs at most about twice
// the bytes actually present. Input may end only after the trailer.
func (tr *tableReader) read(n int) ([]byte, error) {
	tr.buf.Reset()
	if _, err := io.CopyN(&tr.buf, tr.r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("engine: truncated stream: %w", err)
	}
	return tr.buf.Bytes(), nil
}

// frame reads one frame; the trailer's zero size yields an empty payload.
func (tr *tableReader) frame() (frame.Decoder, error) {
	size, err := tr.read(4)
	if err != nil {
		return frame.Decoder{}, err
	}
	buf, err := tr.read(int(binary.LittleEndian.Uint32(size)))
	return frame.NewDecoder(buf, "frame"), err
}

// next decodes the next batch into one vector per column, returning io.EOF
// only after a trailer whose row count matches the rows decoded.
func (tr *tableReader) next() ([]*Vector, error) {
	if tr.done {
		return nil, io.EOF
	}
	d, err := tr.frame()
	if err != nil {
		return nil, err
	}
	if len(d.Rest()) == 0 {
		t, err := tr.read(8)
		if err != nil {
			return nil, err
		}
		if total := binary.LittleEndian.Uint64(t); total != tr.rows {
			return nil, fmt.Errorf("engine: trailer counts %d rows, stream held %d", total, tr.rows)
		}
		tr.done = true
		return nil, io.EOF
	}
	rows, ncols := uint64(d.U32()), d.Bound(uint64(d.U32()), 2) // ≥ kind + null flag per column
	if err := d.Err(); err != nil {
		return nil, err
	}
	if ncols != len(tr.schema) {
		return nil, fmt.Errorf("engine: batch has %d columns, header declares %d", ncols, len(tr.schema))
	}
	vs := make([]*Vector, ncols)
	for ci, c := range tr.schema {
		v := &Vector{typ: c.Type}
		if kind := d.U8(); d.Err() == nil && kind != streamKind[c.Type] {
			return nil, fmt.Errorf("engine: column %d is kind %d, header declares %d", ci, kind, streamKind[c.Type])
		}
		switch d.U8() {
		case 0:
		case 1:
			v.valid = bitmapOfNulls(d.Next((rows+7)/8), int(rows))
		default:
			d.Fail(nil)
		}
		switch c.Type {
		case Float64:
			p := d.Next(8 * rows)
			v.f64 = make([]float64, len(p)/8)
			for i := range v.f64 {
				v.f64[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
			}
		case Int64:
			p := d.Next(8 * rows)
			v.i64 = make([]int64, len(p)/8)
			for i := range v.i64 {
				v.i64[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
			}
		case Bool:
			p := d.Next(rows)
			v.b = make([]bool, len(p))
			for i, x := range p {
				v.b[i] = x != 0
			}
		case String:
			// Per-batch dictionaries hold unique values, so interning them in
			// order gives the identity code mapping.
			v.dict = NewDict()
			n := d.Bound(uint64(d.U32()), 4) // ≥ a length per entry
			for range n {
				v.dict.Code(string(d.Next(uint64(d.U32()))))
			}
			if d.Err() == nil && v.dict.Size() != n {
				return nil, errors.New("engine: table stream repeats a string in a batch dictionary")
			}
			p := d.Next(4 * rows)
			v.codes = make([]int32, len(p)/4)
			for i := range v.codes {
				code := binary.LittleEndian.Uint32(p[4*i:])
				if code >= uint32(n) {
					return nil, fmt.Errorf("engine: string code %d outside a %d-entry dictionary", code, n)
				}
				v.codes[i] = int32(code)
			}
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
		vs[ci] = v
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	tr.rows += rows
	return vs, nil
}

// readAll drains a stream's remaining batches into one table, appended in
// stream order (string codes in first-appearance order).
func (tr *tableReader) readAll() (*Table, error) {
	t := NewTable(tr.schema)
	for {
		vs, err := tr.next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		if t.NumRows() == 0 {
			t.cols = vs // adopt the first batch as is; later ones append to it
			continue
		}
		for j, v := range vs {
			appendVector(t.cols[j], v)
		}
	}
}

// WriteTable encodes t onto w as one table stream: a header with the
// schema, morsel-sized batches and a row-count trailer. Every value
// round-trips bit for bit (NaN payloads, signed zeros, 64-bit integers,
// NULLs of every type).
func WriteTable(w io.Writer, t *Table) error {
	tw, err := newTableWriter(w, t.schema)
	for lo := 0; err == nil && lo < t.NumRows(); lo += DefaultMorselSize {
		err = tw.write(sliceVecs(t.cols, lo, min(lo+DefaultMorselSize, t.NumRows())))
	}
	if err != nil {
		return err
	}
	return tw.close()
}

// ReadTable decodes one stream written by WriteTable; malformed or
// truncated input is an error.
func ReadTable(r io.Reader) (*Table, error) {
	tr, err := newTableReader(r)
	if err != nil {
		return nil, err
	}
	return tr.readAll()
}
