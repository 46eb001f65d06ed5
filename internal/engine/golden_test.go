package engine

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden rewrites the checked-in table streams instead of comparing
// against them. The format is versioned: a deliberate change bumps the
// version byte first, then re-records with
// `go test ./internal/engine -run TestTableStreamGolden -update`.
var updateGolden = flag.Bool("update", false, "rewrite the golden table streams in testdata")

// checkGolden compares got with testdata/name byte for byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		t.Fatalf("%s drifted: %d bytes, want %d; first difference at byte %d", name, len(got), len(want), at)
	}
}

// goldenTable spans two batches and holds every column type: NULLs across
// the first 64-row word boundary and at both batches' tails, a NaN payload,
// -0, the int64 extremes, strings repeating across batches, and a column
// whose bitmap is set but whose second batch holds no NULL.
func goldenTable(t *testing.T) *Table {
	const rows = DefaultMorselSize + 70
	tab := NewTable(Schema{{"f", Float64}, {"i", Int64}, {"s", String}, {"b", Bool}, {"early", Bool}})
	fs := []float64{math.Float64frombits(0x7ff8000000000001), math.Copysign(0, -1), math.Inf(-1), 2.5, 5e-324}
	is := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1 << 53}
	ss := []string{"alpha", "", "βeta", "alpha", "z"}
	for r := 0; r < rows; r++ {
		row := []any{fs[r%5], is[r%5], ss[r%5], r%3 == 0, r%2 == 0}
		null := (r >= 62 && r < 67) || (r >= DefaultMorselSize-2 && r < DefaultMorselSize+1) || r == rows-1
		if null {
			row[0], row[1], row[2], row[3] = nil, nil, nil, nil
		}
		if r == 7 {
			row[4] = nil
		}
		if err := tab.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// TestTableStreamGolden pins the table stream's bytes: a named table over
// two batches, an empty table and one nameless run-file batch must encode
// exactly as recorded and decode back to identical values.
func TestTableStreamGolden(t *testing.T) {
	for name, tab := range map[string]*Table{
		"table.mipt": goldenTable(t),
		"empty.mipt": NewTable(Schema{{"x", Float64}, {"name", String}}),
	} {
		var buf bytes.Buffer
		if err := WriteTable(&buf, tab); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, name, buf.Bytes())
		back, err := ReadTable(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tablesIdentical(t, name, tab, back, "written", "read")
	}

	// A run batch: views at an unaligned offset (a copied bitmap) and at a
	// word-aligned one (a shared bitmap with stray bits past its end), and
	// a string column re-encoded against a per-batch dictionary.
	src := goldenTable(t)
	vs := []*Vector{src.cols[0].Slice(3, 70), src.cols[2].Slice(64, 131), src.cols[3].Slice(DefaultMorselSize, DefaultMorselSize+67)}
	ec := &ExecContext{spill: &spillSession{base: t.TempDir()}}
	defer ec.spill.cleanup()
	rw, err := ec.newRunWriter("golden", vs)
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.write(vs); err != nil {
		t.Fatal(err)
	}
	if err := rw.close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(rw.path)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "run.mipt", got)
	rr, err := ec.openRun(rw.path)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.close()
	back, err := rr.next()
	if err != nil {
		t.Fatal(err)
	}
	schema := Schema{{"", Float64}, {"", String}, {"", Bool}}
	tablesIdentical(t, "run.mipt", &Table{schema: schema, cols: vs}, &Table{schema: schema, cols: back}, "written", "read")
}
