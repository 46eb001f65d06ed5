package engine

// spillio adapts the engine's Vector/Table types to the spill package's
// run-file format. Everything here is per-query: a spillSession lazily
// creates one private temp directory the first time an operator sheds
// state, runWriter/runReader wrap spill.Writer/Reader with memory-
// accountant charges for their I/O buffers, and vecToCol/colToVec convert
// columns losslessly (float bits, NULL bitmaps, dictionary strings).

import (
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

// vecToCol converts one vector into a spill column. Payload slices are
// shared (the writer only reads them); String vectors are re-encoded
// against a compact per-batch dictionary so a batch never serializes a
// large shared dict.
func vecToCol(v *Vector) spill.Column {
	n := v.Len()
	var c spill.Column
	switch v.Type() {
	case Float64:
		c.Kind = spill.F64
		c.F64 = v.f64
	case Int64:
		c.Kind = spill.I64
		c.I64 = v.i64
	case Bool:
		c.Kind = spill.Bool
		c.B = v.b
	case String:
		c.Kind = spill.Str
		codes := make([]int32, n)
		trans := make([]int32, v.dict.Size())
		for i := range trans {
			trans[i] = -1
		}
		var dict []string
		for i, code := range v.codes[:n] {
			t := trans[code]
			if t < 0 {
				t = int32(len(dict))
				dict = append(dict, v.dict.Value(code))
				trans[code] = t
			}
			codes[i] = t
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
// identity code mapping.
func colToVec(c *spill.Column, rows int) *Vector {
	var v *Vector
	switch c.Kind {
	case spill.F64:
		v = &Vector{typ: Float64, f64: c.F64}
	case spill.I64:
		v = &Vector{typ: Int64, i64: c.I64}
	case spill.Bool:
		v = &Vector{typ: Bool, b: c.B}
	case spill.Str:
		d := NewDict()
		for _, s := range c.Dict {
			d.Code(s)
		}
		v = &Vector{typ: String, codes: c.Codes, dict: d}
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

// vecsOf unpacks a decoded batch into vectors.
func vecsOf(b *spill.Batch) []*Vector {
	out := make([]*Vector, len(b.Cols))
	for i := range b.Cols {
		out[i] = colToVec(&b.Cols[i], b.Rows)
	}
	return out
}

// runWriter appends batches to one run file, charging the accountant for
// its write buffer while open and tallying spilled bytes on the query.
type runWriter struct {
	ec   *ExecContext
	path string
	w    *spill.Writer
	rows int64
}

// newRunWriter opens a fresh run file in the query's spill directory.
func (ec *ExecContext) newRunWriter(label string) (*runWriter, error) {
	d, err := ec.spill.dir()
	if err != nil {
		return nil, err
	}
	path := d.RunPath(label)
	w, err := spill.NewWriter(path)
	if err != nil {
		return nil, err
	}
	ec.charge(spill.BufferSize())
	return &runWriter{ec: ec, path: path, w: w}, nil
}

// write appends the vectors as one batch.
func (rw *runWriter) write(vs []*Vector) error {
	before := rw.w.Bytes()
	if err := rw.w.Write(batchOf(vs)); err != nil {
		return err
	}
	if len(vs) > 0 {
		rw.rows += int64(vs[0].Len())
	}
	rw.ec.addSpill(rw.w.Bytes()-before, 0)
	return nil
}

// bytes returns the encoded bytes written so far.
func (rw *runWriter) bytes() int64 { return rw.w.Bytes() }

// close flushes and closes the run, releasing its buffer charge.
func (rw *runWriter) close() error {
	rw.ec.release(spill.BufferSize())
	return rw.w.Close()
}

// runReader streams one run file's batches back, charging the accountant
// for its read buffer while open.
type runReader struct {
	ec   *ExecContext
	r    *spill.Reader
	size int64 // encoded file size, for repartition decisions
}

// openRun opens a run file written earlier this query.
func (ec *ExecContext) openRun(path string) (*runReader, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	r, err := spill.NewReader(path)
	if err != nil {
		return nil, err
	}
	ec.charge(spill.BufferSize())
	return &runReader{ec: ec, r: r, size: fi.Size()}, nil
}

// next returns the next batch's vectors, or (nil, io.EOF) after the last.
func (rr *runReader) next() ([]*Vector, error) {
	b, err := rr.r.Next()
	if err != nil {
		return nil, err
	}
	return vecsOf(b), nil
}

// close closes the run, releasing its buffer charge.
func (rr *runReader) close() error {
	rr.ec.release(spill.BufferSize())
	return rr.r.Close()
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
// when done with the columns. An empty run loads as (nil, 0, 0).
func (ec *ExecContext) loadRun(rr *runReader, path string) (cols []*Vector, rows int, loaded int64, err error) {
	var batches [][]*Vector
	for {
		vs, err := rr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			rr.close()
			return nil, 0, 0, err
		}
		batches = append(batches, vs)
		rows += vs[0].Len()
	}
	if err := rr.close(); err != nil {
		return nil, 0, 0, err
	}
	ec.removeRun(path)
	if len(batches) == 0 {
		return nil, 0, 0, nil
	}
	cols = make([]*Vector, len(batches[0]))
	for j := range cols {
		parts := make([]*Vector, len(batches))
		for i, b := range batches {
			parts[i] = b[j]
		}
		cols[j] = concatVectors(parts[0].Type(), parts, rows)
		loaded += cols[j].ByteSize()
	}
	ec.charge(loaded)
	return cols, rows, loaded, nil
}
