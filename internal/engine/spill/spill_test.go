package spill

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRoundTripAllKinds(t *testing.T) {
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Cleanup()

	path := dir.RunPath("test")
	w, err := createRun(path, F64, I64, Bool, Str)
	if err != nil {
		t.Fatal(err)
	}

	nan := math.Float64frombits(0x7ff8000000000001) // non-canonical payload
	b1 := &Batch{Rows: 4, Cols: []Column{
		{Kind: F64, F64: []float64{1.5, nan, math.Inf(-1), math.Copysign(0, -1)}},
		{Kind: I64, I64: []int64{-7, 0, math.MaxInt64, math.MinInt64}},
		{Kind: Bool, B: []bool{true, false, true, true}},
		{Kind: Str, Codes: []int32{0, 1, 0, 2}, Dict: []string{"alpha", "", "βeta"}},
	}}
	b1.Cols[0].SetNull(1, 4)
	b1.Cols[3].SetNull(3, 4)
	if err := w.Write(b1); err != nil {
		t.Fatal(err)
	}
	b2 := &Batch{Rows: 2, Cols: []Column{
		{Kind: F64, F64: []float64{2, 3}},
		{Kind: I64, I64: []int64{8, 9}},
		{Kind: Bool, B: []bool{false, false}},
		{Kind: Str, Codes: []int32{0, 0}, Dict: []string{"only"}},
	}}
	if err := w.Write(b2); err != nil {
		t.Fatal(err)
	}
	if w.Bytes() <= 0 {
		t.Fatalf("Bytes() = %d, want > 0", w.Bytes())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wantBytes := w.Bytes()
	if st, err := os.Stat(path); err != nil || st.Size() != wantBytes {
		t.Fatalf("file size %v (err %v), want %d", st, err, wantBytes)
	}

	r, err := openRun(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	g1, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if g1.Rows != 4 || len(g1.Cols) != 4 {
		t.Fatalf("batch1 shape %d×%d", g1.Rows, len(g1.Cols))
	}
	for i, want := range b1.Cols[0].F64 {
		if math.Float64bits(g1.Cols[0].F64[i]) != math.Float64bits(want) {
			t.Fatalf("f64[%d] bits differ: %x vs %x", i,
				math.Float64bits(g1.Cols[0].F64[i]), math.Float64bits(want))
		}
	}
	for i, want := range b1.Cols[1].I64 {
		if g1.Cols[1].I64[i] != want {
			t.Fatalf("i64[%d] = %d, want %d", i, g1.Cols[1].I64[i], want)
		}
	}
	for i, want := range b1.Cols[2].B {
		if g1.Cols[2].B[i] != want {
			t.Fatalf("bool[%d] = %v, want %v", i, g1.Cols[2].B[i], want)
		}
	}
	for i, want := range b1.Cols[3].Codes {
		if g1.Cols[3].Codes[i] != want {
			t.Fatalf("code[%d] = %d, want %d", i, g1.Cols[3].Codes[i], want)
		}
	}
	for i, want := range b1.Cols[3].Dict {
		if g1.Cols[3].Dict[i] != want {
			t.Fatalf("dict[%d] = %q, want %q", i, g1.Cols[3].Dict[i], want)
		}
	}
	if !g1.Cols[0].NullAt(1) || g1.Cols[0].NullAt(0) || g1.Cols[0].NullAt(2) {
		t.Fatalf("f64 null bitmap wrong: %v", g1.Cols[0].Nulls)
	}
	if !g1.Cols[3].NullAt(3) || g1.Cols[3].NullAt(0) {
		t.Fatalf("str null bitmap wrong: %v", g1.Cols[3].Nulls)
	}
	if g1.Cols[1].Nulls != nil {
		t.Fatalf("i64 column should have nil bitmap")
	}

	g2, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if g2.Rows != 2 || g2.Cols[3].Dict[0] != "only" {
		t.Fatalf("batch2 mismatch: %+v", g2)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected io.EOF, got %v", err)
	}
}

func TestDirCleanup(t *testing.T) {
	base := t.TempDir()
	dir, err := NewDir(base)
	if err != nil {
		t.Fatal(err)
	}
	p1 := dir.RunPath("a")
	p2 := dir.RunPath("b")
	if p1 == p2 {
		t.Fatalf("RunPath not unique: %s", p1)
	}
	for _, p := range []string{p1, p2} {
		w, err := createRun(p, I64)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(&Batch{Rows: 1, Cols: []Column{{Kind: I64, I64: []int64{1}}}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	dir.Remove(p1)
	if _, err := os.Stat(p1); !os.IsNotExist(err) {
		t.Fatalf("Remove left %s in place", p1)
	}
	if err := dir.Cleanup(); err != nil {
		t.Fatal(err)
	}
	if err := dir.Cleanup(); err != nil { // idempotent
		t.Fatal(err)
	}
	ents, err := os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("cleanup left entries: %v", ents)
	}
	if _, err := os.Stat(filepath.Dir(p2)); !os.IsNotExist(err) {
		t.Fatalf("spill dir still present after Cleanup")
	}
}

func TestEmptyBatchAndZeroRuns(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.col")
	w, err := createRun(path, F64)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&Batch{Rows: 0, Cols: []Column{{Kind: F64}}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := openRun(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	b, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if b.Rows != 0 || len(b.Cols) != 1 {
		t.Fatalf("empty batch shape %d×%d", b.Rows, len(b.Cols))
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected io.EOF, got %v", err)
	}
}

// runWriter/runReader put a stream on a file the way the engine's run
// files do.
type runWriter struct {
	*Writer
	f *os.File
}

func createRun(path string, kinds ...Kind) (*runWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	fields := make([]Field, len(kinds))
	for i, k := range kinds {
		fields[i].Kind = k
	}
	w, err := NewWriter(f, fields)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &runWriter{Writer: w, f: f}, nil
}

func (w *runWriter) Close() error {
	if err := w.Writer.Close(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

type runReader struct {
	*Reader
	f *os.File
}

func openRun(path string) (*runReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &runReader{Reader: r, f: f}, nil
}

func (r *runReader) Close() error { return r.f.Close() }

// oneColumnStream is a valid stream of one F64 column "x" holding two rows:
// the header frame starts at 5, the batch frame at 19 (rows at 23, ncols at
// 27, the column's kind at 31), and the trailer's row count is the last 8
// bytes.
func oneColumnStream(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, []Field{{Name: "x", Kind: F64}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&Batch{Rows: 2, Cols: []Column{{Kind: F64, F64: []float64{1, 2}}}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAll decodes a whole stream, returning the first error.
func readAll(data []byte) error {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for {
		if _, err := r.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

func TestReaderRejectsCorruptStreams(t *testing.T) {
	if err := readAll(oneColumnStream(t)); err != nil {
		t.Fatalf("valid stream: %v", err)
	}
	var badCode bytes.Buffer
	w, _ := NewWriter(&badCode, []Field{{Kind: Str}})
	if err := w.Write(&Batch{Rows: 1, Cols: []Column{{Kind: Str, Codes: []int32{1}, Dict: []string{"a"}}}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	cases := []struct {
		name string
		edit func(b []byte) []byte
		want string
	}{
		{"magic", func(b []byte) []byte { b[0] = 'X'; return b }, "not a table stream"},
		{"version", func(b []byte) []byte { b[4] = 9; return b }, "unsupported stream version"},
		{"header kind", func(b []byte) []byte { b[13] = 7; return b }, "unknown column kind"},
		{"column count", func(b []byte) []byte { b[27] = 2; return b }, "header declares 1"},
		{"batch kind", func(b []byte) []byte { b[31] = byte(I64); return b }, "header declares 0"},
		{"null flag", func(b []byte) []byte { b[32] = 5; return b }, "corrupt frame"},
		{"row count", func(b []byte) []byte { b[23] = 200; return b }, "corrupt frame"},
		{"trailer", func(b []byte) []byte { b[len(b)-8] = 3; return b }, "trailer counts 3 rows"},
		{"no trailer", func(b []byte) []byte { return b[:len(b)-12] }, "truncated stream"},
		{"trailing bytes", func(b []byte) []byte { b[23] = 1; return b }, "8 trailing bytes"},
		{"code", func([]byte) []byte { return badCode.Bytes() }, "outside a 1-entry dictionary"},
	}
	for _, tc := range cases {
		err := readAll(tc.edit(oneColumnStream(t)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
