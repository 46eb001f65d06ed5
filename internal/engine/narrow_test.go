package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// widen returns t with n unread columns appended: strings and floats,
// each with NULLs, none named like a column of t.
func widen(t *Table, n int) *Table {
	schema := append(Schema{}, t.Schema()...)
	cols := make([]*Vector, 0, t.NumCols()+n)
	for i := 0; i < t.NumCols(); i++ {
		cols = append(cols, t.Col(i))
	}
	for c := 0; c < n; c++ {
		typ := Float64
		if c%2 == 0 {
			typ = String
		}
		v := NewVector(typ)
		for r := 0; r < t.NumRows(); r++ {
			switch {
			case (r+c)%7 == 0:
				v.AppendNull()
			case typ == String:
				v.AppendString(fmt.Sprintf("pad%d-%d", c, r%13))
			default:
				v.AppendFloat64(float64(r*c) / 3)
			}
		}
		schema = append(schema, ColumnDef{Name: fmt.Sprintf("pad%d", c), Type: typ})
		cols = append(cols, v)
	}
	out, err := NewTableFromVectors(schema, cols)
	if err != nil {
		panic(err) // equal lengths by construction
	}
	return out
}

// unreadCorpus covers every place a statement names columns: filters,
// GROUP BY/HAVING, ORDER BY (on a select alias too), top-k, count(*)
// alone, a join, a reordered three-way join, a LEFT JOIN with a residual,
// and SELECT *, which reads everything.
var unreadCorpus = []string{
	`SELECT id, x FROM t WHERE x > 0 AND cat = 'cn'`,
	`SELECT cat, count(*) AS n, avg(x) AS m FROM t WHERE flag GROUP BY cat HAVING count(*) > 10 ORDER BY cat`,
	`SELECT id, x + y AS s FROM t WHERE y > 1 ORDER BY s DESC, id`,
	`SELECT id, y FROM t ORDER BY y DESC, id LIMIT 7`,
	`SELECT count(*) AS n FROM t`,
	`SELECT a.cat, count(*) AS n, avg(b.score) AS m FROM t a JOIN u b ON a.id = b.id WHERE b.score > 2 GROUP BY a.cat ORDER BY a.cat`,
	`SELECT a.id, b.score, c.site FROM t a JOIN u b ON a.id = b.id JOIN u c ON a.id = c.id WHERE c.site = 's1' ORDER BY a.id, b.score`,
	`SELECT a.id, b.score FROM t a LEFT JOIN u b ON a.id = b.id AND b.score > 15 ORDER BY a.id, b.score`,
	`SELECT * FROM t WHERE x > 4`,
}

// spilled is the statement's spill volume that its inputs alone decide:
// all of it serially, only its joins' in parallel, where an aggregate
// crosses its budget wherever its workers happen to be.
func spilled(qs QueryStats, par int) int64 {
	if par == 1 {
		return qs.SpillBytes
	}
	var n int64
	qs.Root.Walk(func(p *PlanNode) {
		if p.Op == "join" {
			n += p.SpillBytes
		}
	})
	return n
}

// TestUnreadColumnsCostNothing registers the same tables twice, as they are
// and with 20 unread columns appended, and runs the corpus over both at
// parallelism 1 and N, in memory and under a tiny spill budget. The answers
// must be bit-identical, and a statement that names its columns must touch
// as many vectors and spill as many bytes (spilled) over the wide tables as
// over the narrow ones: the columns it never names cost it nothing.
func TestUnreadColumnsCostNothing(t *testing.T) {
	base := NewDB()
	if err := buildParallelFixture(base, 1500); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, max(2, runtime.NumCPU())} {
		for _, budget := range []int64{0, 4096} {
			open := func(wide bool) *DB {
				opts := []Option{WithParallelism(par), WithMorselSize(128)}
				if budget > 0 {
					opts = append(opts, WithQueryMemLimit(budget), WithSpillDir(t.TempDir()))
				}
				db := NewDB(opts...)
				for _, name := range []string{"t", "u"} {
					tab := base.Table(name)
					if wide {
						tab = widen(tab, 20)
					}
					db.RegisterTable(name, tab)
				}
				return db
			}
			narrow, wide := open(false), open(true)
			label := fmt.Sprintf("par=%d budget=%d", par, budget)
			for _, sql := range unreadCorpus {
				want, nqs, err := narrow.QueryWithStats(sql)
				if err != nil {
					t.Fatalf("%s narrow: %s: %v", label, sql, err)
				}
				got, wqs, err := wide.QueryWithStats(sql)
				if err != nil {
					t.Fatalf("%s wide: %s: %v", label, sql, err)
				}
				star := strings.HasPrefix(sql, "SELECT *")
				if star { // the wide answer's first columns are the narrow answer
					w := want.NumCols()
					if got, err = NewTableFromVectors(got.Schema()[:w], got.cols[:w]); err != nil {
						t.Fatal(err)
					}
				}
				tablesIdentical(t, sql, want, got, "narrow "+label, "wide "+label)
				if star {
					continue
				}
				if strings.Contains(sql, "JOIN u c") && !strings.Contains(wqs.Root.String(), "restore written join order") {
					t.Errorf("%s: %s was not reordered:\n%s", label, sql, wqs.Root)
				}
				if budget > 0 && strings.Contains(sql, "JOIN") && wqs.SpillBytes == 0 {
					t.Errorf("%s: %s did not spill", label, sql)
				}
				if nqs.Vectors != wqs.Vectors {
					t.Errorf("%s: %s: touched %d vectors over the wide tables, %d over the narrow", label, sql, wqs.Vectors, nqs.Vectors)
				}
				if ns, ws := spilled(nqs, par), spilled(wqs, par); ns != ws {
					t.Errorf("%s: %s: spilled %d bytes over the wide tables, %d over the narrow", label, sql, ws, ns)
				}
			}
		}
	}
}
