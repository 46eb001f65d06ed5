package engine

// spillio adapts the engine's Vector/Table types to the spill package's
// table stream. WriteTable/ReadTable put a whole table on any byte stream
// (the worker /query wire). Per query, a spillSession lazily creates one
// private temp directory the first time an operator sheds state, and
// runWriter/runReader keep streams in run files there, charging the memory
// accountant for their I/O buffers. vecToCol/colToVec convert columns
// losslessly (float bits, NULL bitmaps, dictionary strings).

import (
	"bufio"
	"errors"
	"io"
	"os"
	"sync"

	"mip/internal/engine/spill"
)

// spillSession manages one statement's spill directory. The directory is
// created lazily on first use and removed by cleanup(), which beginQuery's
// finish closure always calls — including on cancellation and error paths,
// so no run files outlive their query.
type spillSession struct {
	base string
	mu   sync.Mutex
	d    *spill.Dir
	err  error
}

// dir returns the session's spill directory, creating it on first call.
func (s *spillSession) dir() (*spill.Dir, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.d == nil && s.err == nil {
		s.d, s.err = spill.NewDir(s.base)
	}
	return s.d, s.err
}

// cleanup removes the spill directory and every run file in it.
func (s *spillSession) cleanup() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.d != nil {
		s.d.Cleanup()
		s.d = nil
	}
}

// kindOf and typeOf map engine column types to stream kinds and back.
var (
	kindOf = [...]spill.Kind{Float64: spill.F64, Int64: spill.I64, String: spill.Str, Bool: spill.Bool}
	typeOf = [...]Type{spill.F64: Float64, spill.I64: Int64, spill.Str: String, spill.Bool: Bool}
)

// vecToCol converts one vector into a spill column. Payload slices are
// shared (the writer only reads them); String vectors are re-encoded
// against a compact per-batch dictionary so a batch never serializes a
// large shared dict.
func vecToCol(v *Vector) spill.Column {
	n := v.Len()
	c := spill.Column{Kind: kindOf[v.typ], F64: v.f64, I64: v.i64, B: v.b}
	if v.typ == String {
		codes := make([]int32, n)
		trans := make([]int32, v.dict.Size()) // batch code + 1; 0 = not seen yet
		var dict []string
		for i, code := range v.codes[:n] {
			if trans[code] == 0 {
				dict = append(dict, v.dict.Value(code))
				trans[code] = int32(len(dict))
			}
			codes[i] = trans[code] - 1
		}
		c.Codes, c.Dict = codes, dict
	}
	if v.valid != nil {
		for i := 0; i < n; i++ {
			if v.IsNull(i) {
				c.SetNull(i, n)
			}
		}
	}
	return c
}

// colToVec converts a decoded spill column back into a vector. Per-batch
// dictionaries hold unique values, so re-inserting them in order gives an
// identity code mapping; one repeating a value (a corrupt stream) yields nil.
func colToVec(c *spill.Column, rows int) *Vector {
	v := &Vector{typ: typeOf[c.Kind], f64: c.F64, i64: c.I64, b: c.B, codes: c.Codes}
	if c.Kind == spill.Str {
		v.dict = NewDict()
		for _, s := range c.Dict {
			v.dict.Code(s)
		}
		if v.dict.Size() != len(c.Dict) {
			return nil
		}
	}
	if c.Nulls != nil {
		v.valid = NewBitmap(rows)
		for i := 0; i < rows; i++ {
			if c.NullAt(i) {
				v.valid.Set(i, false)
			}
		}
	}
	return v
}

// batchOf packs the given vectors (one batch's columns, equal lengths)
// into a spill batch.
func batchOf(vs []*Vector) *spill.Batch {
	rows := 0
	if len(vs) > 0 {
		rows = vs[0].Len()
	}
	b := &spill.Batch{Rows: rows, Cols: make([]spill.Column, len(vs))}
	for i, v := range vs {
		b.Cols[i] = vecToCol(v)
	}
	return b
}

// nextVecs decodes a stream's next batch into vectors, or returns io.EOF
// after the last batch.
func nextVecs(sr *spill.Reader) ([]*Vector, error) {
	b, err := sr.Next()
	if err != nil {
		return nil, err
	}
	out := make([]*Vector, len(b.Cols))
	for i := range b.Cols {
		if out[i] = colToVec(&b.Cols[i], b.Rows); out[i] == nil {
			return nil, errors.New("engine: table stream repeats a string in a batch dictionary")
		}
	}
	return out, nil
}

// readTable drains a stream's remaining batches into one table, appended
// in stream order (string codes in first-appearance order).
func readTable(sr *spill.Reader) (*Table, error) {
	schema := make(Schema, len(sr.Fields()))
	for i, f := range sr.Fields() {
		schema[i] = ColumnDef{Name: f.Name, Type: typeOf[f.Kind]}
	}
	t := NewTable(schema)
	for {
		vs, err := nextVecs(sr)
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

// WriteTable encodes t onto w as one table stream — the run-file format:
// a header with the schema, morsel-sized batches and a row-count trailer.
// Every value round-trips bit for bit (NaN payloads, signed zeros, 64-bit
// integers, NULLs of every type).
func WriteTable(w io.Writer, t *Table) error {
	fields := make([]spill.Field, len(t.schema))
	for i, c := range t.schema {
		fields[i] = spill.Field{Name: c.Name, Kind: kindOf[c.Type]}
	}
	sw, err := spill.NewWriter(w, fields)
	for lo := 0; err == nil && lo < t.NumRows(); lo += DefaultMorselSize {
		err = sw.Write(batchOf(sliceVecs(t.cols, lo, min(lo+DefaultMorselSize, t.NumRows()))))
	}
	if err != nil {
		return err
	}
	return sw.Close()
}

// ReadTable decodes one stream written by WriteTable; malformed or
// truncated input is an error.
func ReadTable(r io.Reader) (*Table, error) {
	sr, err := spill.NewReader(r)
	if err != nil {
		return nil, err
	}
	return readTable(sr)
}

// runBuffer is the bufio size of run readers and writers: small on purpose,
// since spilling queries are already over their memory budget and the
// accountant charges one buffer per open run.
const runBuffer = 64 << 10

// runWriter appends batches to one run file, charging the accountant for
// its write buffer while open and tallying spilled bytes on the query.
type runWriter struct {
	ec   *ExecContext
	path string
	f    *os.File
	bw   *bufio.Writer
	w    *spill.Writer
}

// newRunWriter opens a fresh run file in the query's spill directory for
// batches shaped like vs.
func (ec *ExecContext) newRunWriter(label string, vs []*Vector) (*runWriter, error) {
	d, err := ec.spill.dir()
	if err != nil {
		return nil, err
	}
	rw := &runWriter{ec: ec, path: d.RunPath(label)}
	if rw.f, err = os.OpenFile(rw.path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600); err != nil {
		return nil, err
	}
	fields := make([]spill.Field, len(vs))
	for i, v := range vs {
		fields[i].Kind = kindOf[v.typ]
	}
	rw.bw = bufio.NewWriterSize(rw.f, runBuffer)
	if rw.w, err = spill.NewWriter(rw.bw, fields); err != nil {
		rw.f.Close()
		return nil, err
	}
	ec.charge(runBuffer)
	ec.addSpill(rw.w.Bytes(), 0)
	return rw, nil
}

// write appends the vectors as one batch.
func (rw *runWriter) write(vs []*Vector) error {
	before := rw.w.Bytes()
	if err := rw.w.Write(batchOf(vs)); err != nil {
		return err
	}
	rw.ec.addSpill(rw.w.Bytes()-before, 0)
	return nil
}

// bytes returns the encoded bytes written so far.
func (rw *runWriter) bytes() int64 { return rw.w.Bytes() }

// close ends the stream, flushes and closes the run, releasing its buffer
// charge.
func (rw *runWriter) close() error {
	rw.ec.release(runBuffer)
	return errors.Join(rw.w.Close(), rw.bw.Flush(), rw.f.Close())
}

// runReader streams one run file's batches back, charging the accountant
// for its read buffer while open.
type runReader struct {
	ec   *ExecContext
	f    *os.File
	r    *spill.Reader
	size int64 // encoded file size, for repartition decisions
}

// openRun opens a run file written earlier this query.
func (ec *ExecContext) openRun(path string) (*runReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	rr := &runReader{ec: ec, f: f}
	fi, err := f.Stat()
	if err == nil {
		rr.size = fi.Size()
		rr.r, err = spill.NewReader(bufio.NewReaderSize(f, runBuffer))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	ec.charge(runBuffer)
	return rr, nil
}

// next returns the next batch's vectors, or (nil, io.EOF) after the last.
func (rr *runReader) next() ([]*Vector, error) { return nextVecs(rr.r) }

// close closes the run, releasing its buffer charge.
func (rr *runReader) close() error {
	rr.ec.release(runBuffer)
	return rr.f.Close()
}

// removeRun deletes a fully consumed run file early (before the session
// cleanup), bounding peak disk usage during recursive repartitioning.
func (ec *ExecContext) removeRun(path string) {
	if d, err := ec.spill.dir(); err == nil && d != nil {
		d.Remove(path)
	}
}

// loadRun reads a whole run (one known to fit the budget) into one vector
// per column, batches concatenated in file order, then closes and deletes
// it. The loaded bytes are charged to the query; the caller releases them
// when done with the columns.
func (ec *ExecContext) loadRun(rr *runReader, path string) (cols []*Vector, rows int, loaded int64, err error) {
	t, err := readTable(rr.r)
	if err = errors.Join(err, rr.close()); err != nil {
		return nil, 0, 0, err
	}
	ec.removeRun(path)
	ec.charge(t.ByteSize())
	return t.cols, t.NumRows(), t.ByteSize(), nil
}
