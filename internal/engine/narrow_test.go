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
				if budget > 0 && strings.Contains(sql, "JOIN") && joinOverflow(wqs) == 0 {
					t.Errorf("%s: %s joined no partition in a later pass", label, sql)
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

// TestAllPassFilterIsItsInput: a filter that keeps every row answers with
// its input table, so its columns are the input's vectors and it charges
// nothing — both the materialized WHERE stage and a join input's pushed
// filter — while a filter that drops one row still gathers. Answers are
// the same either way.
func TestAllPassFilterIsItsInput(t *testing.T) {
	db := NewDB(WithParallelism(2), WithMorselSize(128))
	if err := buildParallelFixture(db, 1500); err != nil {
		t.Fatal(err)
	}
	tab := db.Table("t")
	sameCols := func(got *Table) bool {
		for i := range tab.cols {
			if i >= len(got.cols) || got.cols[i] != tab.cols[i] {
				return false
			}
		}
		return true
	}
	all := rowStrings(tab)
	for _, c := range []struct {
		sql  string
		want []string
	}{
		{`SELECT * FROM t WHERE id >= 0`, all},
		{`SELECT * FROM t WHERE id <> 7`, append(all[:7:7], all[8:]...)},
	} {
		got, qs, err := db.QueryWithStats(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if strings.Join(rowStrings(got), "|") != strings.Join(c.want, "|") {
			t.Fatalf("%s: %d rows, want %d", c.sql, got.NumRows(), len(c.want))
		}
		if keepsAll := len(c.want) == len(all); sameCols(got) != keepsAll || (qs.MemPeakBytes == 0) != keepsAll {
			t.Fatalf("%s: columns are the input's %v, peak %d bytes; want %v and a peak of 0 exactly when every row passes",
				c.sql, sameCols(got), qs.MemPeakBytes, keepsAll)
		}
	}

	// A join input's pushed filter: the input the join reads holds the
	// scanned vectors themselves when every row passes, a gathered copy
	// when one does not, and the statement peaks where the same join
	// without a WHERE does.
	u := db.Table("u")
	plain, plainStats, err := db.QueryWithStats(`SELECT a.id, b.score FROM t a JOIN u b ON a.id = b.id`)
	if err != nil {
		t.Fatal(err)
	}
	dropped := u.Col(1).Float64s()[0]
	var rest []string // plain's rows without the dropped score
	for r := 0; r < plain.NumRows(); r++ {
		if plain.Col(1).Float64s()[r] != dropped {
			rest = append(rest, fmt.Sprint(plain.Row(r)))
		}
	}
	for _, c := range []struct {
		where    string
		keepsAll bool
	}{{"b.score >= 0", true}, {"b.score <> " + fmt.Sprint(dropped), false}} {
		sql := `SELECT a.id, b.score FROM t a JOIN u b ON a.id = b.id WHERE ` + c.where
		st, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := db.cat.Load().planJoins(st.(*SelectStmt), true)
		if err != nil {
			t.Fatal(err)
		}
		acct := &MemAccountant{}
		inputs, _, err := joinInputs(&ExecContext{Parallelism: 2, MorselSize: 128, Acct: acct}, plan, &QueryStats{})
		if err != nil {
			t.Fatal(err)
		}
		scanned := plan.rels[1].table // u narrowed, zero-copy, to the columns named
		same := inputs[1].NumRows() == u.NumRows()
		for i := range scanned.cols {
			same = same && inputs[1].cols[i] == scanned.cols[i]
		}
		if same != c.keepsAll || (acct.Peak() == 0) != c.keepsAll {
			t.Fatalf("%s: pushed filter answered with its input %v, charged %d bytes; want %v and 0 bytes exactly when every row passes",
				sql, same, acct.Peak(), c.keepsAll)
		}
		got, qs, err := db.QueryWithStats(sql)
		if err != nil {
			t.Fatal(err)
		}
		if !c.keepsAll {
			if strings.Join(rowStrings(got), "|") != strings.Join(rest, "|") {
				t.Fatalf("%s: %d rows, want %d", sql, got.NumRows(), len(rest))
			}
			continue
		}
		tablesIdentical(t, sql, plain, got, "no WHERE", "all-pass WHERE")
		if qs.MemPeakBytes != plainStats.MemPeakBytes {
			t.Fatalf("%s: peak %d bytes, %d without the WHERE", sql, qs.MemPeakBytes, plainStats.MemPeakBytes)
		}
	}
}
