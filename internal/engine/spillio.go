package engine

// spillio keeps operator state in table streams on disk. Per query, a
// spillSession lazily creates one private temp directory the first time an
// operator sheds state, and runWriter/runReader keep streams in run files
// there, charging the memory accountant for their I/O buffers.

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// spillSession owns one statement's spill directory: a MkdirTemp under
// base, created on first use, handing out unique run-file paths. cleanup()
// removes it with every run inside, spilled or leaked; beginQuery's finish
// closure always calls it, including on cancellation and error paths, so
// no run files outlive their query. Safe for concurrent use.
type spillSession struct {
	base string
	mu   sync.Mutex
	path string // "" until first use and after cleanup
	err  error
	seq  int
}

// runPath returns a fresh unique run-file path in the session's directory,
// creating the directory on first call. The label is embedded for
// debuggability only.
func (s *spillSession) runPath(label string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.path == "" && s.err == nil {
		if s.err = os.MkdirAll(s.base, 0o700); s.err == nil {
			s.path, s.err = os.MkdirTemp(s.base, "mipspill-")
		}
	}
	if s.err != nil {
		return "", s.err
	}
	s.seq++
	return filepath.Join(s.path, fmt.Sprintf("run-%04d-%s.col", s.seq, label)), nil
}

// cleanup removes the spill directory and every run file in it. Idempotent.
func (s *spillSession) cleanup() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.path == "" {
		return nil
	}
	err := os.RemoveAll(s.path)
	s.path = ""
	return err
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
	w    *tableWriter
}

// newRunWriter opens a fresh run file in the query's spill directory for
// batches shaped like vs.
func (ec *ExecContext) newRunWriter(label string, vs []*Vector) (*runWriter, error) {
	path, err := ec.spill.runPath(label)
	if err != nil {
		return nil, err
	}
	rw := &runWriter{ec: ec, path: path}
	if rw.f, err = os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600); err != nil {
		return nil, err
	}
	schema := make(Schema, len(vs))
	for i, v := range vs {
		schema[i].Type = v.typ
	}
	rw.bw = bufio.NewWriterSize(rw.f, runBuffer)
	if rw.w, err = newTableWriter(rw.bw, schema); err != nil {
		rw.f.Close()
		return nil, err
	}
	ec.charge(runBuffer)
	ec.addSpill(rw.w.bytes, 0)
	return rw, nil
}

// write appends the vectors as one batch.
func (rw *runWriter) write(vs []*Vector) error {
	before := rw.w.bytes
	if err := rw.w.write(vs); err != nil {
		return err
	}
	rw.ec.addSpill(rw.w.bytes-before, 0)
	return nil
}

// bytes returns the encoded bytes written so far.
func (rw *runWriter) bytes() int64 { return rw.w.bytes }

// close ends the stream, flushes and closes the run, releasing its buffer
// charge.
func (rw *runWriter) close() error {
	rw.ec.release(runBuffer)
	return errors.Join(rw.w.close(), rw.bw.Flush(), rw.f.Close())
}

// runReader streams one run file's batches back, charging the accountant
// for its read buffer while open.
type runReader struct {
	ec   *ExecContext
	f    *os.File
	r    *tableReader
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
		rr.r, err = newTableReader(bufio.NewReaderSize(f, runBuffer))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	ec.charge(runBuffer)
	return rr, nil
}

// next returns the next batch's vectors, or (nil, io.EOF) after the last.
func (rr *runReader) next() ([]*Vector, error) { return rr.r.next() }

// close closes the run, releasing its buffer charge.
func (rr *runReader) close() error {
	rr.ec.release(runBuffer)
	return rr.f.Close()
}

// removeRun deletes a fully consumed run file early (before the session
// cleanup), bounding peak disk usage.
func (ec *ExecContext) removeRun(path string) { os.Remove(path) }
