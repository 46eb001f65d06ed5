package engine

import (
	"fmt"
	"strings"
	"testing"
)

// rowStrings renders every row of t, in order, for exact comparison.
func rowStrings(t *Table) []string {
	out := make([]string, t.NumRows())
	for i := range out {
		out[i] = fmt.Sprint(t.Row(i))
	}
	return out
}

// TestLeftJoinResidual pins SQL's LEFT JOIN semantics for an ON residual:
// the residual decides which pairs match, and a left row none of whose
// pairs pass survives once, NULL-extended, in left-row order. It holds for
// a residual on either side and for an IS NULL test above the join, in
// memory and through a join of several passes under a tiny spill budget; inner-join
// residuals keep filtering pairs.
func TestLeftJoinResidual(t *testing.T) {
	// a has NULL keys and duplicates; b.x is never NULL, so a NULL b.x is
	// always a padded row.
	a := NewTable(Schema{{Name: "k", Type: Int64}, {Name: "v", Type: Float64}})
	b := NewTable(Schema{{Name: "k", Type: Int64}, {Name: "x", Type: Int64}})
	type arow struct {
		k any
		v float64
	}
	type brow struct{ k, x int64 }
	var as []arow
	var bs []brow
	for i := 0; i < 700; i++ {
		r := arow{k: int64(i % 50), v: float64(i%11) / 2}
		if i%37 == 0 {
			r.k = nil
		}
		as = append(as, r)
		if err := a.AppendRow(r.k, r.v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		r := brow{k: int64(i % 70), x: int64(i % 13)}
		bs = append(bs, r)
		if err := b.AppendRow(r.k, r.x); err != nil {
			t.Fatal(err)
		}
	}
	// want is the nested-loop answer: left rows in order, each with its
	// passing right rows in order, or once with NULL when none pass.
	want := func(outer, nullOnly bool, on func(arow, brow) bool) []string {
		var out []string
		for _, ar := range as {
			matched := false
			for _, br := range bs {
				if ar.k != nil && ar.k.(int64) == br.k && on(ar, br) {
					matched = true
					if !nullOnly {
						out = append(out, fmt.Sprint([]any{ar.v, br.x}))
					}
				}
			}
			if outer && !matched {
				out = append(out, fmt.Sprint([]any{ar.v, nil}))
			}
		}
		return out
	}
	cases := []struct {
		sql  string
		want []string
	}{
		{`SELECT a.v, b.x FROM a LEFT JOIN b ON a.k = b.k AND b.x > 6`,
			want(true, false, func(_ arow, br brow) bool { return br.x > 6 })},
		{`SELECT a.v, b.x FROM a LEFT JOIN b ON a.k = b.k AND a.v > 2`,
			want(true, false, func(ar arow, _ brow) bool { return ar.v > 2 })},
		{`SELECT a.v, b.x FROM a LEFT JOIN b ON a.k = b.k AND a.v < b.x`,
			want(true, false, func(ar arow, br brow) bool { return ar.v < float64(br.x) })},
		{`SELECT a.v, b.x FROM a LEFT JOIN b ON a.k = b.k AND b.x > 6 WHERE b.x IS NULL`,
			want(true, true, func(_ arow, br brow) bool { return br.x > 6 })},
		{`SELECT a.v, b.x FROM a JOIN b ON a.k = b.k AND b.x > 6`,
			want(false, false, func(_ arow, br brow) bool { return br.x > 6 })},
	}
	for _, budget := range []int64{0, 4096} {
		opts := []Option{WithParallelism(4), WithMorselSize(64)}
		if budget > 0 {
			opts = append(opts, WithQueryMemLimit(budget), WithSpillDir(t.TempDir()))
		}
		db := NewDB(opts...)
		db.RegisterTable("a", a)
		db.RegisterTable("b", b)
		// The defect as first seen: a = {1, 2}, b = {(1, 1), (2, 9)}.
		small := `SELECT a2.k, b2.x FROM a2 LEFT JOIN b2 ON a2.k = b2.k AND b2.x > 5`
		var got *Table
		var err error
		for _, sql := range []string{`CREATE TABLE a2 (k INT)`, `INSERT INTO a2 VALUES (1), (2)`,
			`CREATE TABLE b2 (k INT, x INT)`, `INSERT INTO b2 VALUES (1, 1), (2, 9)`, small} {
			if got, err = db.Query(sql); err != nil {
				t.Fatalf("budget %d: %s: %v", budget, sql, err)
			}
		}
		if g, w := strings.Join(rowStrings(got), " "), "[1 <nil>] [2 9]"; g != w {
			t.Errorf("budget %d: %s = %s, want %s", budget, small, g, w)
		}
		for _, c := range cases {
			got, qs, err := db.QueryWithStats(c.sql)
			if err != nil {
				t.Fatalf("budget %d: %s: %v", budget, c.sql, err)
			}
			if budget > 0 && joinOverflow(qs) == 0 {
				t.Errorf("budget %d: %s joined no partition in a later pass", budget, c.sql)
			}
			g := rowStrings(got)
			if strings.Join(g, "|") != strings.Join(c.want, "|") {
				t.Errorf("budget %d: %s: %d rows, want %d", budget, c.sql, len(g), len(c.want))
				for i := range min(len(g), len(c.want)) {
					if g[i] != c.want[i] {
						t.Errorf("  first difference at row %d: %s, want %s", i, g[i], c.want[i])
						break
					}
				}
			}
		}
	}
}
