// Package spill implements the engine's columnar table stream, the format
// of both spill run files and a worker's /query answer:
//
//	"MIPT" | u8 version | frame(header) | frame(batch)* | u32 0 | u64 rows
//
// A frame is a non-zero u32 size and that many bytes; the header lists each
// column's kind and name; a batch holds the typed column payloads of a row
// range plus packed null bitmaps. The trailer's row count turns a stream
// cut anywhere, even between batches, into an error rather than a shorter
// table. The format is little-endian and append-only, so a stream can go
// straight to a buffered file or an HTTP response.
//
// The package is deliberately independent of the engine's Vector/Table
// types (the engine imports spill, never the reverse); the engine-side
// adapters live in internal/engine/spillio.go.
package spill

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
)

const (
	magic   = "MIPT"
	version = 1
)

// Kind enumerates the column payload types a stream can carry. They
// mirror the engine's column types.
type Kind uint8

// Column payload kinds.
const (
	F64 Kind = iota
	I64
	Bool
	Str
)

// Field is one column of a stream header; run files leave Name empty.
type Field struct {
	Name string
	Kind Kind
}

// Column is one column of a batch: exactly one payload slice is populated,
// per Kind. Floats travel as IEEE bit patterns, so NaN payloads and signed
// zeros survive byte for byte. Str columns are dictionary-encoded per
// batch: Codes index into Dict. Nulls, when non-nil, is a packed bitmap
// (bit i set = row i NULL).
type Column struct {
	Kind  Kind
	F64   []float64
	I64   []int64
	B     []bool
	Codes []int32
	Dict  []string
	Nulls []byte
}

// Batch is one row range of a stream's columns.
type Batch struct {
	Rows int
	Cols []Column
}

// NullAt reports whether row i of the column is NULL.
func (c *Column) NullAt(i int) bool {
	if c.Nulls == nil {
		return false
	}
	return c.Nulls[i/8]&(1<<(uint(i)%8)) != 0
}

// SetNull marks row i NULL in a bitmap sized for n rows (allocating it on
// first use).
func (c *Column) SetNull(i, n int) {
	if c.Nulls == nil {
		c.Nulls = make([]byte, (n+7)/8)
	}
	c.Nulls[i/8] |= 1 << (uint(i) % 8)
}

// Writer encodes one stream onto an io.Writer, one Write call per frame.
type Writer struct {
	w       io.Writer
	rows    uint64
	bytes   int64
	scratch []byte
}

// NewWriter writes the stream header for the given columns to w.
func NewWriter(w io.Writer, fields []Field) (*Writer, error) {
	sw := &Writer{w: w, scratch: append([]byte(magic), version, 0, 0, 0, 0)}
	sw.u32(uint32(len(fields)))
	for _, f := range fields {
		sw.scratch = append(sw.scratch, byte(f.Kind))
		sw.u32(uint32(len(f.Name)))
		sw.scratch = append(sw.scratch, f.Name...)
	}
	if err := sw.flush(len(magic) + 1); err != nil {
		return nil, err
	}
	return sw, nil
}

// Bytes returns the total encoded bytes written so far.
func (w *Writer) Bytes() int64 { return w.bytes }

func (w *Writer) u32(x uint32) {
	w.scratch = binary.LittleEndian.AppendUint32(w.scratch, x)
}

func (w *Writer) u64(x uint64) {
	w.scratch = binary.LittleEndian.AppendUint64(w.scratch, x)
}

// flush writes the scratch buffer out, first filling in the size of the
// frame whose u32 size field sits at offset at (none when at < 0).
func (w *Writer) flush(at int) error {
	if at >= 0 {
		binary.LittleEndian.PutUint32(w.scratch[at:], uint32(len(w.scratch)-at-4))
	}
	n, err := w.w.Write(w.scratch)
	w.bytes += int64(n)
	w.scratch = w.scratch[:0]
	return err
}

// Write appends one batch as a frame. Batch layout:
//
//	u32 rows | u32 ncols | per column:
//	  u8 kind | u8 hasNulls | [nulls bitmap] | payload
//
// payloads: F64/I64 are 8*rows bytes, Bool is rows bytes, Str is
// u32 dictLen, dictLen × (u32 len + bytes), then 4*rows code bytes.
func (w *Writer) Write(b *Batch) error {
	// Reserve 9 bytes a cell (the widest payload plus its null bit) up front;
	// only string dictionaries can still grow the buffer.
	w.scratch = append(slices.Grow(w.scratch[:0], 16+9*b.Rows*len(b.Cols)), 0, 0, 0, 0)
	w.u32(uint32(b.Rows))
	w.u32(uint32(len(b.Cols)))
	for ci := range b.Cols {
		c := &b.Cols[ci]
		hasNulls := byte(0)
		if c.Nulls != nil {
			hasNulls = 1
		}
		w.scratch = append(w.scratch, byte(c.Kind), hasNulls)
		if hasNulls == 1 {
			want := (b.Rows + 7) / 8
			if len(c.Nulls) < want {
				return fmt.Errorf("spill: null bitmap too short: %d < %d", len(c.Nulls), want)
			}
			w.scratch = append(w.scratch, c.Nulls[:want]...)
		}
		switch c.Kind {
		case F64:
			for _, x := range c.F64[:b.Rows] {
				w.u64(math.Float64bits(x))
			}
		case I64:
			for _, x := range c.I64[:b.Rows] {
				w.u64(uint64(x))
			}
		case Bool:
			for _, x := range c.B[:b.Rows] {
				if x {
					w.scratch = append(w.scratch, 1)
				} else {
					w.scratch = append(w.scratch, 0)
				}
			}
		case Str:
			w.u32(uint32(len(c.Dict)))
			for _, s := range c.Dict {
				w.u32(uint32(len(s)))
				w.scratch = append(w.scratch, s...)
			}
			for _, code := range c.Codes[:b.Rows] {
				w.u32(uint32(code))
			}
		default:
			return fmt.Errorf("spill: unknown column kind %d", c.Kind)
		}
	}
	w.rows += uint64(b.Rows)
	return w.flush(0)
}

// Close writes the end-of-stream trailer; the underlying writer stays open.
func (w *Writer) Close() error {
	w.scratch = append(w.scratch[:0], 0, 0, 0, 0)
	w.u64(w.rows)
	return w.flush(-1)
}

// Reader decodes one stream from an io.Reader. Malformed input — a bad
// magic, version, kind, column count, length, dictionary code or trailer —
// is an error, never a panic, and costs memory in proportion to its size.
type Reader struct {
	r      io.Reader
	fields []Field
	rows   uint64
	done   bool
	buf    bytes.Buffer
}

// NewReader reads and validates the stream header from r.
func NewReader(r io.Reader) (*Reader, error) {
	sr := &Reader{r: r}
	pre, err := sr.read(len(magic) + 1)
	if err != nil {
		return nil, err
	}
	if string(pre[:len(magic)]) != magic {
		return nil, fmt.Errorf("spill: not a table stream (magic %q)", pre[:len(magic)])
	}
	if pre[len(magic)] != version {
		return nil, fmt.Errorf("spill: unsupported stream version %d", pre[len(magic)])
	}
	d, err := sr.frame()
	if err != nil {
		return nil, err
	}
	sr.fields = make([]Field, d.count(5)) // ≥ kind + name length per column
	for i := range sr.fields {
		f := &sr.fields[i]
		if f.Kind = Kind(d.u8()); f.Kind > Str {
			return nil, fmt.Errorf("spill: unknown column kind %d in header", f.Kind)
		}
		f.Name = string(d.bytes(int(d.u32())))
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return sr, nil
}

// Fields returns the stream's columns, as declared by its header.
func (r *Reader) Fields() []Field { return r.fields }

// read returns the next n bytes, valid until the next read. The buffer
// grows only as bytes arrive, so a forged length costs at most about twice
// the bytes actually present. Input may end only after the trailer.
func (r *Reader) read(n int) ([]byte, error) {
	r.buf.Reset()
	if _, err := io.CopyN(&r.buf, r.r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("spill: truncated stream: %w", err)
	}
	return r.buf.Bytes(), nil
}

// frame reads one frame; the trailer's zero size yields an empty payload.
func (r *Reader) frame() (*decoder, error) {
	size, err := r.read(4)
	if err != nil {
		return nil, err
	}
	buf, err := r.read(int(binary.LittleEndian.Uint32(size)))
	return &decoder{buf: buf}, err
}

// Next decodes the next batch, returning io.EOF only after a trailer whose
// row count matches the rows decoded.
func (r *Reader) Next() (*Batch, error) {
	if r.done {
		return nil, io.EOF
	}
	d, err := r.frame()
	if err != nil {
		return nil, err
	}
	if len(d.buf) == 0 {
		t, err := r.read(8)
		if err != nil {
			return nil, err
		}
		if total := binary.LittleEndian.Uint64(t); total != r.rows {
			return nil, fmt.Errorf("spill: trailer counts %d rows, stream held %d", total, r.rows)
		}
		r.done = true
		return nil, io.EOF
	}
	rows, ncols := int(d.u32()), d.count(2) // ≥ kind + null flag per column
	if d.err == nil && ncols != len(r.fields) {
		d.err = fmt.Errorf("spill: batch has %d columns, header declares %d", ncols, len(r.fields))
	}
	if d.err != nil {
		return nil, d.err
	}
	b := &Batch{Rows: rows, Cols: make([]Column, ncols)}
	for ci := range b.Cols {
		c := &b.Cols[ci]
		if c.Kind = Kind(d.u8()); d.err == nil && c.Kind != r.fields[ci].Kind {
			return nil, fmt.Errorf("spill: column %d is kind %d, header declares %d", ci, c.Kind, r.fields[ci].Kind)
		}
		switch d.u8() {
		case 0:
		case 1:
			c.Nulls = append([]byte(nil), d.bytes((rows+7)/8)...)
		default:
			d.fail()
		}
		switch c.Kind {
		case F64:
			p := d.bytes(8 * rows)
			c.F64 = make([]float64, len(p)/8)
			for i := range c.F64 {
				c.F64[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
			}
		case I64:
			p := d.bytes(8 * rows)
			c.I64 = make([]int64, len(p)/8)
			for i := range c.I64 {
				c.I64[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
			}
		case Bool:
			p := d.bytes(rows)
			c.B = make([]bool, len(p))
			for i, x := range p {
				c.B[i] = x != 0
			}
		case Str:
			c.Dict = make([]string, d.count(4)) // ≥ a length per entry
			for i := range c.Dict {
				c.Dict[i] = string(d.bytes(int(d.u32())))
			}
			p := d.bytes(4 * rows)
			c.Codes = make([]int32, len(p)/4)
			for i := range c.Codes {
				code := binary.LittleEndian.Uint32(p[4*i:])
				if code >= uint32(len(c.Dict)) {
					return nil, fmt.Errorf("spill: string code %d outside a %d-entry dictionary", code, len(c.Dict))
				}
				c.Codes[i] = int32(code)
			}
		}
		if d.err != nil {
			return nil, d.err
		}
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	r.rows += uint64(rows)
	return b, nil
}

// decoder reads one frame's payload. A short read records an error and
// yields zero values, so callers check err once per column.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("spill: corrupt frame (short read)")
	}
}

// bytes returns the next n bytes. Once the frame runs short it returns
// zeros, at most 8 of them, so a forged n allocates nothing.
func (d *decoder) bytes(n int) []byte {
	if d.err != nil || n > len(d.buf)-d.off {
		d.fail()
		return make([]byte, min(n, 8))
	}
	d.off += n
	return d.buf[d.off-n : d.off]
}

func (d *decoder) u8() byte    { return d.bytes(1)[0] }
func (d *decoder) u32() uint32 { return binary.LittleEndian.Uint32(d.bytes(4)) }

// count reads an element count and fails unless the frame has at least
// size bytes left per element: the bound every allocation sized by the
// stream passes through.
func (d *decoder) count(size int) int {
	if n := int(d.u32()); n <= (len(d.buf)-d.off)/size {
		return n
	}
	d.fail()
	return 0
}

// finish fails unless the frame decoded cleanly and completely.
func (d *decoder) finish() error {
	if d.err == nil && d.off != len(d.buf) {
		d.err = fmt.Errorf("spill: %d trailing bytes in frame", len(d.buf)-d.off)
	}
	return d.err
}

// Dir manages one query's spill directory: a MkdirTemp under the
// configured base, handing out unique run-file paths and removing
// everything (every run, spilled or leaked) on Cleanup. Safe for
// concurrent use.
type Dir struct {
	mu   sync.Mutex
	path string
	seq  atomic.Int64
}

// NewDir creates a fresh private spill directory under base.
func NewDir(base string) (*Dir, error) {
	if err := os.MkdirAll(base, 0o700); err != nil {
		return nil, err
	}
	p, err := os.MkdirTemp(base, "mipspill-")
	if err != nil {
		return nil, err
	}
	return &Dir{path: p}, nil
}

// RunPath returns a fresh unique run-file path inside the directory. The
// label is embedded for debuggability only.
func (d *Dir) RunPath(label string) string {
	return filepath.Join(d.path, fmt.Sprintf("run-%04d-%s.col", d.seq.Add(1), label))
}

// Remove deletes one run file (partition fully consumed); missing files
// are not an error.
func (d *Dir) Remove(path string) {
	os.Remove(path)
}

// Cleanup removes the directory and every run inside it. Idempotent.
func (d *Dir) Cleanup() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.path == "" {
		return nil
	}
	err := os.RemoveAll(d.path)
	d.path = ""
	return err
}
