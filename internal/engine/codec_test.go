package engine

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

// codecSeed encodes rows of a table holding every column type, with NULLs
// and float/integer edge values, keeping only its first ncols columns (the
// BOOLEAN one first, so a narrow seed can still span several batches).
func codecSeed(t testing.TB, rows, ncols int) []byte {
	tab := NewTable(Schema{{"b", Bool}, {"s", String}, {"i", Int64}, {"f", Float64}})
	fs := []float64{math.Float64frombits(0x7ff8000000000001), math.Inf(1), math.Copysign(0, -1), 2.5}
	is := []int64{math.MinInt64, math.MaxInt64, 1<<62 + 1, -3}
	ss := []string{"", "βeta", "a", "zz"}
	for r := 0; r < rows; r++ {
		if r%5 == 4 {
			if err := tab.AppendRow(nil, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := tab.AppendRow(r%2 == 0, ss[r%4], is[r%4], fs[r%4]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, &Table{schema: tab.schema[:ncols], cols: tab.cols[:ncols]}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Allocation bound for FuzzReadTable: decoding may cost a fixed-size struct
// per column per batch (a column needs only 2 stream bytes), but never more
// than linear in the input — a forged length must not buy an allocation.
const (
	fuzzAllocPerByte = 256
	fuzzAllocSlack   = 64 << 10
)

// FuzzReadTable feeds arbitrary bytes to the table-stream decoder, which
// reads network input on the master: it must never panic, never allocate
// more than linearly in its input, and whatever it accepts must re-encode
// to the same table.
func FuzzReadTable(f *testing.F) {
	f.Add(codecSeed(f, 0, 4))
	f.Add(codecSeed(f, 9, 4))
	f.Add(codecSeed(f, DefaultMorselSize+3, 1))
	f.Add([]byte("MIPT\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tab, err := ReadTable(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(fuzzAllocPerByte*len(data)+fuzzAllocSlack) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTable(&buf, tab); err != nil {
			t.Fatalf("re-encoding a decoded table: %v", err)
		}
		back, err := ReadTable(&buf)
		if err != nil {
			t.Fatalf("decoding a re-encoded table: %v", err)
		}
		tablesIdentical(t, "fuzz", tab, back, "decoded", "re-decoded")
	})
}
