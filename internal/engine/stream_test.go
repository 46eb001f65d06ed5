package engine

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spillContext is an ExecContext whose spill session lives under base.
func spillContext(base string) *ExecContext {
	return &ExecContext{spill: &spillSession{base: base}}
}

// writeRun writes the batches to a fresh run file and returns its path and
// encoded size.
func writeRun(t *testing.T, ec *ExecContext, label string, batches ...[]*Vector) (string, int64) {
	t.Helper()
	rw, err := ec.newRunWriter(label, batches[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, vs := range batches {
		if err := rw.write(vs); err != nil {
			t.Fatal(err)
		}
	}
	if rw.bytes() <= 0 {
		t.Fatalf("bytes() = %d, want > 0", rw.bytes())
	}
	if err := rw.close(); err != nil {
		t.Fatal(err)
	}
	return rw.path, rw.bytes()
}

func TestRoundTripAllKinds(t *testing.T) {
	ec := spillContext(t.TempDir())
	defer ec.spill.cleanup()

	nan := math.Float64frombits(0x7ff8000000000001) // non-canonical payload
	f := NewFloat64Vector([]float64{1.5, nan, math.Inf(-1), math.Copysign(0, -1)}, NewBitmap(4))
	f.valid.Set(1, false)
	s := NewStringVector([]string{"alpha", "", "alpha", "βeta"}, NewBitmap(4))
	s.valid.Set(3, false)
	b1 := []*Vector{f, NewInt64Vector([]int64{-7, 0, math.MaxInt64, math.MinInt64}, nil),
		NewBoolVector([]bool{true, false, true, true}, nil), s}
	b2 := []*Vector{NewFloat64Vector([]float64{2, 3}, nil), NewInt64Vector([]int64{8, 9}, nil),
		NewBoolVector([]bool{false, false}, nil), NewStringVector([]string{"only", "only"}, nil)}
	path, wantBytes := writeRun(t, ec, "test", b1, b2)
	if st, err := os.Stat(path); err != nil || st.Size() != wantBytes {
		t.Fatalf("file size %v (err %v), want %d", st, err, wantBytes)
	}

	rr, err := ec.openRun(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.close()
	g1, err := rr.next()
	if err != nil {
		t.Fatal(err)
	}
	if len(g1) != 4 || g1[0].Len() != 4 {
		t.Fatalf("batch1 shape %d×%d", g1[0].Len(), len(g1))
	}
	for i, want := range b1[0].f64 {
		if math.Float64bits(g1[0].f64[i]) != math.Float64bits(want) {
			t.Fatalf("f64[%d] bits differ: %x vs %x", i, math.Float64bits(g1[0].f64[i]), math.Float64bits(want))
		}
	}
	for i, want := range b1[1].i64 {
		if g1[1].i64[i] != want {
			t.Fatalf("i64[%d] = %d, want %d", i, g1[1].i64[i], want)
		}
	}
	for i, want := range b1[2].b {
		if g1[2].b[i] != want {
			t.Fatalf("bool[%d] = %v, want %v", i, g1[2].b[i], want)
		}
	}
	for i, want := range []int32{0, 1, 0, 2} {
		if g1[3].codes[i] != want {
			t.Fatalf("code[%d] = %d, want %d", i, g1[3].codes[i], want)
		}
	}
	for i, want := range []string{"alpha", "", "βeta"} {
		if g1[3].dict.Value(int32(i)) != want {
			t.Fatalf("dict[%d] = %q, want %q", i, g1[3].dict.Value(int32(i)), want)
		}
	}
	if !g1[0].IsNull(1) || g1[0].IsNull(0) || g1[0].IsNull(2) {
		t.Fatal("f64 null bitmap wrong")
	}
	if !g1[3].IsNull(3) || g1[3].IsNull(0) {
		t.Fatal("str null bitmap wrong")
	}
	if g1[1].valid != nil {
		t.Fatal("i64 column should have nil bitmap")
	}

	g2, err := rr.next()
	if err != nil {
		t.Fatal(err)
	}
	if g2[0].Len() != 2 || g2[3].dict.Size() != 1 || g2[3].StringAt(0) != "only" {
		t.Fatalf("batch2 mismatch: %+v", g2)
	}
	if _, err := rr.next(); err != io.EOF {
		t.Fatalf("expected io.EOF, got %v", err)
	}
}

func TestDirCleanup(t *testing.T) {
	base := t.TempDir()
	ec := spillContext(base)
	one := []*Vector{NewInt64Vector([]int64{1}, nil)}
	p1, _ := writeRun(t, ec, "a", one)
	p2, _ := writeRun(t, ec, "b", one)
	if p1 == p2 {
		t.Fatalf("run paths not unique: %s", p1)
	}
	ec.removeRun(p1)
	if _, err := os.Stat(p1); !os.IsNotExist(err) {
		t.Fatalf("removeRun left %s in place", p1)
	}
	if err := ec.spill.cleanup(); err != nil {
		t.Fatal(err)
	}
	if err := ec.spill.cleanup(); err != nil { // idempotent
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
		t.Fatal("spill dir still present after cleanup")
	}
}

func TestEmptyBatchAndZeroRuns(t *testing.T) {
	ec := spillContext(t.TempDir())
	defer ec.spill.cleanup()
	path, _ := writeRun(t, ec, "empty", []*Vector{NewFloat64Vector(nil, nil)})
	rr, err := ec.openRun(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.close()
	vs, err := rr.next()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Len() != 0 {
		t.Fatalf("empty batch shape %d×%d", vs[0].Len(), len(vs))
	}
	if _, err := rr.next(); err != io.EOF {
		t.Fatalf("expected io.EOF, got %v", err)
	}
}

// oneColumnStream is a valid stream of one DOUBLE column "x" holding two
// rows: the header frame starts at 5, the batch frame at 19 (rows at 23,
// ncols at 27, the column's kind at 31), and the trailer's row count is
// the last 8 bytes.
func oneColumnStream(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	tab := &Table{schema: Schema{{"x", Float64}}, cols: []*Vector{NewFloat64Vector([]float64{1, 2}, nil)}}
	if err := WriteTable(&buf, tab); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReaderRejectsCorruptStreams(t *testing.T) {
	if _, err := ReadTable(bytes.NewReader(oneColumnStream(t))); err != nil {
		t.Fatalf("valid stream: %v", err)
	}
	// A one-row string stream whose code, the batch's last 4 bytes before
	// the 12-byte trailer, points past its one-entry dictionary.
	var badCode bytes.Buffer
	if err := WriteTable(&badCode, &Table{schema: Schema{{"", String}}, cols: []*Vector{NewStringVector([]string{"a"}, nil)}}); err != nil {
		t.Fatal(err)
	}
	badCode.Bytes()[badCode.Len()-16] = 1
	cases := []struct {
		name string
		edit func(b []byte) []byte
		want string
	}{
		{"magic", func(b []byte) []byte { b[0] = 'X'; return b }, "not a table stream"},
		{"version", func(b []byte) []byte { b[4] = 9; return b }, "unsupported stream version"},
		{"header kind", func(b []byte) []byte { b[13] = 7; return b }, "unknown column kind"},
		{"column count", func(b []byte) []byte { b[27] = 2; return b }, "header declares 1"},
		{"batch kind", func(b []byte) []byte { b[31] = streamKind[Int64]; return b }, "header declares 0"},
		{"null flag", func(b []byte) []byte { b[32] = 5; return b }, "corrupt frame"},
		{"row count", func(b []byte) []byte { b[23] = 200; return b }, "corrupt frame"},
		{"trailer", func(b []byte) []byte { b[len(b)-8] = 3; return b }, "trailer counts 3 rows"},
		{"no trailer", func(b []byte) []byte { return b[:len(b)-12] }, "truncated stream"},
		{"trailing bytes", func(b []byte) []byte { b[23] = 1; return b }, "8 trailing bytes"},
		{"code", func([]byte) []byte { return badCode.Bytes() }, "outside a 1-entry dictionary"},
	}
	for _, tc := range cases {
		_, err := ReadTable(bytes.NewReader(tc.edit(oneColumnStream(t))))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
