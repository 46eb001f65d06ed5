package main

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"sort"
	"strings"

	"mip/internal/engine"
)

// Correctness checks. Federated results are compared with a pooled
// single-database reference: numbers within a relative tolerance (partial
// sums are added in a different order), everything else exactly.

const (
	tolPlain = 1e-9
	// tolSecure covers the SMPC fixed-point codec: aggregates are exact only
	// to the codec's fractional precision.
	tolSecure = 1e-3
)

func closeEnough(a, b, tol float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))+tol*1e-3
}

// equalJSON compares two JSON documents structurally, numbers within tol.
func equalJSON(got, want []byte, tol float64) error {
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		return fmt.Errorf("decoding reference: %w", err)
	}
	return equalValue("$", g, w, tol)
}

func equalValue(path string, g, w any, tol float64) error {
	switch wv := w.(type) {
	case map[string]any:
		gv, ok := g.(map[string]any)
		if !ok || len(gv) != len(wv) {
			return fmt.Errorf("%s: object shape differs", path)
		}
		for k, we := range wv {
			ge, ok := gv[k]
			if !ok {
				return fmt.Errorf("%s.%s: missing", path, k)
			}
			if err := equalValue(path+"."+k, ge, we, tol); err != nil {
				return err
			}
		}
	case []any:
		gv, ok := g.([]any)
		if !ok || len(gv) != len(wv) {
			return fmt.Errorf("%s: array shape differs", path)
		}
		for i := range wv {
			if err := equalValue(fmt.Sprintf("%s[%d]", path, i), gv[i], wv[i], tol); err != nil {
				return err
			}
		}
	case float64:
		gv, ok := g.(float64)
		if !ok || !closeEnough(gv, wv, tol) {
			return fmt.Errorf("%s: got %v, want %v", path, g, w)
		}
	default:
		if g != w {
			return fmt.Errorf("%s: got %v, want %v", path, g, w)
		}
	}
	return nil
}

// digest summarizes a result table so that large shipped results need not be
// kept: the row count plus an order-insensitive checksum of the exact cell
// values (bit patterns for floats, NULL distinct from every value).
type digest struct {
	rows int
	sum  uint64
}

var digestSeed = maphash.MakeSeed()

func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// digestTable hashes column-wise (no per-row materialization), folding each
// cell into its row's hash and summing the row hashes.
func digestTable(t *engine.Table) digest {
	n := t.NumRows()
	rows := make([]uint64, n)
	for c := 0; c < t.NumCols(); c++ {
		v := t.Col(c)
		salt := mix(uint64(c) + 1)
		var dict []uint64
		if v.Type() == engine.String {
			d := v.StrDict()
			dict = make([]uint64, d.Size())
			for i := range dict {
				dict[i] = maphash.String(digestSeed, d.Value(int32(i)))
			}
		}
		for i := 0; i < n; i++ {
			var cell uint64
			switch {
			case v.IsNull(i):
				cell = 0x9e3779b97f4a7c15
			case v.Type() == engine.Float64:
				cell = math.Float64bits(v.Float64s()[i])
			case v.Type() == engine.Int64:
				cell = uint64(v.Int64s()[i])
			case v.Type() == engine.String:
				cell = dict[v.Codes()[i]]
			case v.Type() == engine.Bool:
				if v.Bools()[i] {
					cell = 1
				}
			}
			rows[i] = mix(rows[i] ^ cell ^ salt)
		}
	}
	d := digest{rows: n}
	for _, h := range rows {
		d.sum += h
	}
	return d
}

// equalTables compares two small tables row by row after sorting both by
// their non-numeric columns (group keys), numbers within tol. Used for
// aggregates, whose partial sums are merged in a different order than the
// pooled reference adds them.
func equalTables(got, want *engine.Table, tol float64) error {
	if g, w := got.Schema().Names(), want.Schema().Names(); strings.Join(g, ",") != strings.Join(w, ",") {
		return fmt.Errorf("columns %v, want %v", g, w)
	}
	if got.NumRows() != want.NumRows() {
		return fmt.Errorf("%d rows, want %d", got.NumRows(), want.NumRows())
	}
	g, w := sortedRows(got), sortedRows(want)
	for i := range w {
		for c := range w[i] {
			gf, gok := number(g[i][c])
			wf, wok := number(w[i][c])
			if gok && wok {
				if !closeEnough(gf, wf, tol) {
					return fmt.Errorf("row %d col %d: got %v, want %v", i, c, gf, wf)
				}
			} else if g[i][c] != w[i][c] {
				return fmt.Errorf("row %d col %d: got %v, want %v", i, c, g[i][c], w[i][c])
			}
		}
	}
	return nil
}

// number widens a numeric cell: a count is BIGINT on one engine and DOUBLE
// after a merge of partial aggregates.
func number(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	}
	return 0, false
}

func sortedRows(t *engine.Table) [][]any {
	rows := make([][]any, t.NumRows())
	keys := make([]string, len(rows))
	for i := range rows {
		rows[i] = t.Row(i)
		var b strings.Builder
		for _, v := range rows[i] {
			if _, isNumber := number(v); !isNumber {
				fmt.Fprintf(&b, "%v\x00", v)
			}
		}
		keys[i] = b.String()
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([][]any, len(rows))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}
