package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// buildFederation creates nParts local DBs each holding a shard of the same
// logical table, plus a pooled DB with all rows, and returns the merge view
// and the pooled DB for equivalence checks.
func buildFederation(t *testing.T, nParts int) (*DB, *MergeTable, *DB) {
	t.Helper()
	schema := Schema{{"hospital", String}, {"age", Float64}, {"mmse", Float64}, {"diagnosis", String}}
	master := NewDB()
	pooled := NewDB()
	pooledTab := NewTable(schema)

	mt := &MergeTable{Schema: schema, TableName: "data"}
	row := 0
	for p := 0; p < nParts; p++ {
		db := NewDB()
		tab := NewTable(schema)
		for i := 0; i < 50+p*13; i++ {
			h := fmt.Sprintf("hosp%d", p)
			age := 55 + float64((row*37)%40) + float64(p)
			var mmse any = float64(10 + (row*29)%20)
			if row%11 == 0 {
				mmse = nil
			}
			diag := []string{"CN", "MCI", "AD"}[row%3]
			if err := tab.AppendRow(h, age, mmse, diag); err != nil {
				t.Fatal(err)
			}
			if err := pooledTab.AppendRow(h, age, mmse, diag); err != nil {
				t.Fatal(err)
			}
			row++
		}
		db.RegisterTable("data", tab)
		mt.Parts = append(mt.Parts, &LocalPart{Name: fmt.Sprintf("part%d", p), DB: db})
	}
	pooled.RegisterTable("data", pooledTab)
	master.RegisterMerge("data", mt)
	return master, mt, pooled
}

// checkSame asserts two result tables have the same schema (names and
// types) and equal values, floats within tolerance.
func checkSame(t *testing.T, sql string, got, want *Table) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("%s: dims %dx%d vs %dx%d", sql, got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for j, c := range want.Schema() {
		if g := got.Schema()[j]; g != c {
			t.Fatalf("%s: column %d is %s %s, want %s %s", sql, j, g.Name, g.Type, c.Name, c.Type)
		}
	}
	for i := 0; i < got.NumRows(); i++ {
		for j := 0; j < got.NumCols(); j++ {
			a, b := got.Col(j).Value(i), want.Col(j).Value(i)
			af, aok := a.(float64)
			bf, bok := b.(float64)
			if aok && bok {
				if math.Abs(af-bf) > 1e-9*(1+math.Abs(bf)) {
					t.Fatalf("%s: [%d][%d] = %v, want %v", sql, i, j, a, b)
				}
				continue
			}
			if a != b {
				t.Fatalf("%s: [%d][%d] = %v (%T), want %v (%T)", sql, i, j, a, a, b, b)
			}
		}
	}
}

// mergeView is what one statement's record says about its merge fan-in:
// the mode of its merge plan node, the SQL each part ran, and the shipped
// rows and bytes, answering parts and dropped parts.
type mergeView struct {
	Pushdown     bool
	PartSQL      string
	RowsShipped  int
	BytesShipped int64
	Workers      []string
	Dropped      []string
}

// queryMerge runs sql on db and reads the statement's merge fan-in from
// its own QueryStats.
func queryMerge(t *testing.T, db *DB, sql string) (*Table, mergeView, error) {
	t.Helper()
	got, qs, err := db.QueryWithStats(sql)
	if err != nil {
		return nil, mergeView{}, err
	}
	v := mergeView{RowsShipped: qs.RowsShipped, BytesShipped: qs.BytesShipped, Workers: qs.Workers, Dropped: qs.Dropped}
	var merge *PlanNode
	qs.Root.Walk(func(n *PlanNode) {
		if n.Op == "merge" && merge == nil {
			merge = n
		}
	})
	if merge == nil {
		t.Fatalf("%s: no merge node in the plan:\n%s", sql, qs.Root)
	}
	v.Pushdown = strings.HasPrefix(merge.Detail, "pushdown ")
	if len(merge.Children) > 0 {
		_, v.PartSQL, _ = strings.Cut(merge.Children[0].Detail, ": ")
	}
	return got, v, nil
}

// TestMergePushdownEquivalence is the paper's consistency claim (E4/E9):
// a federated aggregate must equal the pooled aggregate, with only partial
// aggregates crossing the wire.
func TestMergePushdownEquivalence(t *testing.T) {
	master, _, pooled := buildFederation(t, 4)
	queries := []string{
		`SELECT count(*) AS n FROM data`,
		`SELECT sum(age) AS s, avg(age) AS m FROM data`,
		`SELECT min(age) AS lo, max(age) AS hi FROM data`,
		`SELECT count(mmse) AS n FROM data`,
		`SELECT stddev_samp(age) AS sd, var_samp(age) AS v FROM data`,
		`SELECT diagnosis, count(*) AS n, avg(mmse) AS m FROM data GROUP BY diagnosis ORDER BY diagnosis`,
		`SELECT diagnosis, avg(age) AS m FROM data WHERE age > 60 GROUP BY diagnosis ORDER BY diagnosis`,
		`SELECT hospital, diagnosis, count(*) AS n FROM data GROUP BY hospital, diagnosis ORDER BY hospital, diagnosis`,
		`SELECT corr(age, mmse) AS r FROM data`,
		`SELECT diagnosis, count(*) AS n FROM data GROUP BY diagnosis HAVING count(*) > 20 ORDER BY diagnosis`,
		`SELECT avg(age) AS m FROM data WHERE diagnosis IN ('AD', 'MCI')`,
	}
	for _, sql := range queries {
		got, st, err := queryMerge(t, master, sql)
		if err != nil {
			t.Fatalf("merge query %q: %v", sql, err)
		}
		if !st.Pushdown {
			t.Errorf("%s: expected aggregate pushdown", sql)
		}
		want, err := pooled.Query(sql)
		if err != nil {
			t.Fatalf("pooled query %q: %v", sql, err)
		}
		checkSame(t, sql, got, want)
	}
}

// Non-decomposable aggregates (median/quantile) and row queries fall back
// to materializing the union; results must still be exact.
func TestMergeMaterializeFallback(t *testing.T) {
	master, _, pooled := buildFederation(t, 3)
	queries := []string{
		`SELECT median(age) AS m FROM data`,
		`SELECT quantile(age, 0.25) AS q FROM data`,
		`SELECT count(DISTINCT diagnosis) AS d FROM data`,
	}
	for _, sql := range queries {
		got, st, err := queryMerge(t, master, sql)
		if err != nil {
			t.Fatalf("merge query %q: %v", sql, err)
		}
		if st.Pushdown {
			t.Errorf("%s: expected materialize fallback", sql)
		}
		want, err := pooled.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		checkSame(t, sql, got, want)
	}
}

// Pushdown must ship far fewer rows than materialization.
func TestMergePushdownShipsOnlyAggregates(t *testing.T) {
	master, _, _ := buildFederation(t, 4)
	_, push, err := queryMerge(t, master, `SELECT avg(age) AS m FROM data`)
	if err != nil {
		t.Fatal(err)
	}
	if push.RowsShipped != 4 { // one partial row per part
		t.Fatalf("pushdown shipped %d rows, want 4", push.RowsShipped)
	}
	_, mat, err := queryMerge(t, master, `SELECT median(age) AS m FROM data`)
	if err != nil {
		t.Fatal(err)
	}
	if mat.RowsShipped <= push.RowsShipped {
		t.Fatalf("materialize shipped %d rows, pushdown %d — expected many more", mat.RowsShipped, push.RowsShipped)
	}
}

func TestMergeRowQuery(t *testing.T) {
	master, _, pooled := buildFederation(t, 2)
	sql := `SELECT hospital, age FROM data WHERE age > 80 ORDER BY age, hospital LIMIT 10`
	got, err := master.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pooled.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	checkSame(t, sql, got, want)
}

func TestMergeSinglePart(t *testing.T) {
	master, _, pooled := buildFederation(t, 1)
	sql := `SELECT diagnosis, avg(age) AS m FROM data GROUP BY diagnosis ORDER BY diagnosis`
	got, err := master.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := pooled.Query(sql)
	checkSame(t, sql, got, want)
}

func TestMergePartError(t *testing.T) {
	mt := &MergeTable{
		Schema:    Schema{{"x", Float64}},
		TableName: "nope",
		Parts:     []Part{&LocalPart{Name: "p0", DB: NewDB()}},
	}
	db := NewDB()
	db.RegisterMerge("v", mt)
	if _, err := db.Query(`SELECT sum(x) FROM v`); err == nil {
		t.Fatal("expected error from failing part")
	}
}

// failingPart always errors — a dead worker as the merge table sees it.
type failingPart struct{ name string }

func (p *failingPart) PartName() string { return p.name }
func (p *failingPart) QueryCtx(context.Context, string) (*Table, error) {
	return nil, fmt.Errorf("connection refused")
}

// partTable builds a one-part DB with n rows of x = 1..n.
func partDB(t *testing.T, n int) *DB {
	t.Helper()
	db := NewDB()
	tab := NewTable(Schema{{"x", Float64}})
	for i := 1; i <= n; i++ {
		if err := tab.AppendRow(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterTable("data", tab)
	return db
}

// TestMergeMinPartsDegraded: with MinParts set, a failing part is dropped
// from both the pushdown and the materialize path, the partial result
// covers the survivors, and the statement's record names the failed part. Below
// MinParts the query errors.
func TestMergeMinPartsDegraded(t *testing.T) {
	newMT := func(minParts int) *DB {
		mt := &MergeTable{
			Schema:    Schema{{"x", Float64}},
			TableName: "data",
			MinParts:  minParts,
			Parts: []Part{
				&LocalPart{Name: "p0", DB: partDB(t, 3)}, // x: 1,2,3
				&failingPart{name: "p1"},
				&LocalPart{Name: "p2", DB: partDB(t, 2)}, // x: 1,2
			},
		}
		db := NewDB()
		db.RegisterMerge("data", mt)
		return db
	}

	// Pushdown path (decomposable aggregate).
	got, st, err := queryMerge(t, newMT(2), `SELECT sum(x) AS s FROM data`)
	if err != nil {
		t.Fatalf("degraded pushdown: %v", err)
	}
	if s := got.Col(0).Float64s()[0]; s != 9 { // 6 + 3
		t.Fatalf("partial sum = %v, want 9", s)
	}
	if !st.Pushdown || len(st.Workers) != 2 || len(st.Dropped) != 1 || st.Dropped[0] != "p1" {
		t.Fatalf("stats = %+v", st)
	}

	// Materialize path (non-decomposable aggregate).
	got, st, err = queryMerge(t, newMT(2), `SELECT median(x) AS m FROM data`)
	if err != nil {
		t.Fatalf("degraded materialize: %v", err)
	}
	if m := got.Col(0).Float64s()[0]; m != 2 { // union 1,2,3,1,2
		t.Fatalf("partial median = %v, want 2", m)
	}
	if st.Pushdown || len(st.Dropped) != 1 || st.Dropped[0] != "p1" {
		t.Fatalf("stats = %+v", st)
	}

	// Survivors below MinParts: fail, naming the broken part.
	if _, err := newMT(3).Query(`SELECT sum(x) FROM data`); err == nil {
		t.Fatal("2 survivors under MinParts=3 must fail")
	}

	// MinParts unset keeps strict semantics.
	if _, err := newMT(0).Query(`SELECT sum(x) FROM data`); err == nil {
		t.Fatal("strict merge with failing part must fail")
	}
}

// nilPart answers with neither a table nor an error — a buggy worker.
type nilPart struct{ name string }

func (p *nilPart) PartName() string                                 { return p.name }
func (p *nilPart) QueryCtx(context.Context, string) (*Table, error) { return nil, nil }

// TestMergeMaterializeProjectionFilterLimitPushdown is the acceptance
// check for the materialize-path pushdown: a projected, filtered, limited
// row query must ship measurably fewer rows and bytes than the full
// SELECT * materialization, the pushed SQL must show all three
// reductions, and the result must still equal the pooled reference.
func TestMergeMaterializeProjectionFilterLimitPushdown(t *testing.T) {
	master, _, pooled := buildFederation(t, 4)

	// Baseline: a query that materializes the full union.
	_, base, err := queryMerge(t, master, `SELECT median(age) AS m FROM data`)
	if err != nil {
		t.Fatal(err)
	}
	if base.Pushdown || base.RowsShipped == 0 || base.BytesShipped == 0 {
		t.Fatalf("baseline stats = %+v, want a full materialization", base)
	}

	sql := `SELECT hospital, age FROM data WHERE age > 80 LIMIT 10`
	got, st, err := queryMerge(t, master, sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pooled.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	checkSame(t, sql, got, want)

	if st.Pushdown {
		t.Fatal("row query must take the materialize path")
	}
	wantSQL := `SELECT hospital, age FROM data WHERE (age > 80) LIMIT 10`
	if st.PartSQL != wantSQL {
		t.Errorf("part SQL = %q, want %q", st.PartSQL, wantSQL)
	}
	if st.RowsShipped > 4*10 {
		t.Errorf("shipped %d rows, want at most parts*(limit+offset) = 40", st.RowsShipped)
	}
	if st.RowsShipped >= base.RowsShipped {
		t.Errorf("pushdown shipped %d rows, baseline %d — no reduction", st.RowsShipped, base.RowsShipped)
	}
	if st.BytesShipped <= 0 || st.BytesShipped >= base.BytesShipped {
		t.Errorf("pushdown shipped %d bytes, baseline %d — no reduction", st.BytesShipped, base.BytesShipped)
	}

	// ORDER BY needs the whole filtered union: the LIMIT must not push,
	// but projection and filter still do.
	sql = `SELECT hospital, age FROM data WHERE age > 80 ORDER BY age, hospital LIMIT 5`
	got, st, err = queryMerge(t, master, sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err = pooled.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	checkSame(t, sql, got, want)
	if strings.Contains(st.PartSQL, "LIMIT") {
		t.Errorf("LIMIT pushed under ORDER BY: %q", st.PartSQL)
	}
	if !strings.Contains(st.PartSQL, "hospital, age") || !strings.Contains(st.PartSQL, "WHERE") {
		t.Errorf("projection/filter missing from part SQL: %q", st.PartSQL)
	}

	// ORDER BY over a select-item alias must not leak the alias into the
	// pushed projection.
	sql = `SELECT age AS a FROM data WHERE age > 80 ORDER BY a`
	if _, st, err = queryMerge(t, master, sql); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.PartSQL, "SELECT age FROM") {
		t.Errorf("aliased ORDER BY broke the projection: %q", st.PartSQL)
	}
}

// TestMergeQuotedIdentifierPushdown is the round-trip regression for
// quoted identifiers: a filter over columns that need quoting (a space,
// a reserved word) must survive rendering into per-part SQL and re-parse
// at the part. Under the old bare-name rendering the shipped SQL was
// unparseable.
func TestMergeQuotedIdentifierPushdown(t *testing.T) {
	schema := Schema{{"patient id", Float64}, {"select", String}}
	pdb := NewDB()
	tab := NewTable(schema)
	for i := 1; i <= 6; i++ {
		if err := tab.AppendRow(float64(i), fmt.Sprintf("s%d", i%2)); err != nil {
			t.Fatal(err)
		}
	}
	pdb.RegisterTable("data", tab)
	mt := &MergeTable{Schema: schema, TableName: "data",
		Parts: []Part{&LocalPart{Name: "p0", DB: pdb}}}
	master := NewDB()
	master.RegisterMerge("data", mt)

	sql := `SELECT "patient id" FROM data WHERE "patient id" > 2 AND "select" = 's1'`
	got, st, err := queryMerge(t, master, sql)
	if err != nil {
		t.Fatalf("quoted-identifier round trip: %v", err)
	}
	// Rows 3..6 pass the range; of those, odd ids carry s1.
	if got.NumRows() != 2 {
		t.Fatalf("got %d rows, want 2", got.NumRows())
	}
	if !strings.Contains(st.PartSQL, `"patient id"`) || !strings.Contains(st.PartSQL, `"select"`) {
		t.Errorf("part SQL lost identifier quoting: %q", st.PartSQL)
	}
}

// TestMergeZeroParts: an empty federation with a declared schema answers
// row queries with an empty typed result; without a schema it reports a
// clear error instead of crashing on a nil union schema.
func TestMergeZeroParts(t *testing.T) {
	db := NewDB()
	db.RegisterMerge("data", &MergeTable{
		Schema:    Schema{{"x", Float64}, {"tag", String}},
		TableName: "data",
	})
	got, err := db.Query(`SELECT x FROM data WHERE x > 1`)
	if err != nil {
		t.Fatalf("zero-part query: %v", err)
	}
	if got.NumRows() != 0 || got.NumCols() != 1 {
		t.Fatalf("got %dx%d, want an empty one-column result", got.NumRows(), got.NumCols())
	}
	if s := got.Schema(); s[0].Name != "x" || s[0].Type != Float64 {
		t.Fatalf("schema = %v, want declared x DOUBLE", s)
	}
	// A decomposable aggregate answers as over an empty pooled table.
	got, err = db.Query(`SELECT count(*) AS n, sum(x) AS s FROM data`)
	if err != nil {
		t.Fatalf("zero-part aggregate: %v", err)
	}
	if got.NumRows() != 1 || got.Col(0).Int64s()[0] != 0 || !got.Col(1).IsNull(0) {
		t.Fatalf("zero-part aggregate = %v, want one row (0, NULL)", got.Row(0))
	}

	bare := NewDB()
	bare.RegisterMerge("data", &MergeTable{TableName: "data"})
	_, err = bare.Query(`SELECT median(x) AS m FROM data`)
	if err == nil || !strings.Contains(err.Error(), "no parts and no declared schema") {
		t.Fatalf("schemaless zero-part merge: err = %v, want a clear diagnosis", err)
	}
}

// TestMergeNilTablePart: a part that answers (nil, nil) is a failure, not
// a silent empty shard — strict merges error, MinParts merges degrade.
func TestMergeNilTablePart(t *testing.T) {
	newMT := func(minParts int) *DB {
		mt := &MergeTable{
			Schema:    Schema{{"x", Float64}},
			TableName: "data",
			MinParts:  minParts,
			Parts: []Part{
				&LocalPart{Name: "p0", DB: partDB(t, 3)},
				&nilPart{name: "p1"},
			},
		}
		db := NewDB()
		db.RegisterMerge("data", mt)
		return db
	}
	if _, err := newMT(0).Query(`SELECT median(x) AS m FROM data`); err == nil || !strings.Contains(err.Error(), "returned no table") {
		t.Fatalf("strict merge over nil-table part: err = %v, want 'returned no table'", err)
	}
	got, st, err := queryMerge(t, newMT(1), `SELECT median(x) AS m FROM data`)
	if err != nil {
		t.Fatalf("degraded merge over nil-table part: %v", err)
	}
	if m := got.Col(0).Float64s()[0]; m != 2 {
		t.Fatalf("median over surviving part = %v, want 2", m)
	}
	if len(st.Dropped) != 1 || st.Dropped[0] != "p1" {
		t.Fatalf("stats = %+v, want p1 recorded as failed", st)
	}
}

// cannedPart answers every query with one fixed table: a worker that does
// not run the SQL it is sent.
type cannedPart struct{ t *Table }

func (p cannedPart) PartName() string                                 { return "canned" }
func (p cannedPart) QueryCtx(context.Context, string) (*Table, error) { return p.t, nil }

// TestMergeMalformedPartAnswer: a part answer lacking the partial columns
// the pushdown asked for fails the statement with an error.
func TestMergeMalformedPartAnswer(t *testing.T) {
	db := NewDB()
	db.RegisterMerge("data", &MergeTable{TableName: "data",
		Parts: []Part{cannedPart{NewTable(Schema{{"p0", Float64}})}}})
	if _, err := db.Query(`SELECT avg(x) AS m FROM data`); err == nil {
		t.Fatal("a one-column answer to a two-partial pushdown succeeded")
	}
}

// TestGroupedInExpr: IN over a group key and over an aggregate, in the
// select list, in HAVING and inside CASE, answers on a merge table exactly
// as on the plain table holding the union of its parts' rows.
func TestGroupedInExpr(t *testing.T) {
	master, _, pooled := buildFederation(t, 2)
	// 113 rows cycling CN, MCI, AD: the groups count 38, 38 and 37.
	queries := []string{
		`SELECT diagnosis, sum(age) AS s FROM data GROUP BY diagnosis HAVING diagnosis IN ('AD', 'CN') ORDER BY diagnosis`,
		`SELECT diagnosis, sum(age) AS s FROM data GROUP BY diagnosis HAVING count(*) IN (37) ORDER BY diagnosis`,
		`SELECT diagnosis, count(*) AS n FROM data GROUP BY diagnosis HAVING diagnosis NOT IN ('MCI') AND max(age) IN (94.0, 95.0, 96.0) ORDER BY diagnosis`,
		`SELECT diagnosis, diagnosis IN ('AD') AS is_ad, count(*) IN (37) AS small FROM data GROUP BY diagnosis ORDER BY diagnosis`,
		`SELECT diagnosis, CASE WHEN diagnosis IN ('AD', 'MCI') THEN sum(age) ELSE 0.0 END AS s, CASE WHEN count(*) IN (37) THEN 1 ELSE 0 END AS small FROM data GROUP BY diagnosis ORDER BY diagnosis`,
		`SELECT count(*) IN (113) AS all_rows, sum(age) AS s FROM data`,
	}
	for _, sql := range queries {
		want, err := pooled.Query(sql)
		if err != nil {
			t.Fatalf("plain %s: %v", sql, err)
		}
		if want.NumRows() == 0 {
			t.Fatalf("plain %s: no rows, the query tests nothing", sql)
		}
		got, err := master.Query(sql)
		if err != nil {
			t.Fatalf("merge %s: %v", sql, err)
		}
		checkSame(t, sql, got, want)
	}
}

// TestMergePushdownGroupOnly: a statement that aggregates through its
// GROUP BY or HAVING alone, with no aggregate among its select items,
// pushes down like any other aggregate: each part ships one row per group,
// not its rows, and the answer equals the pooled one.
func TestMergePushdownGroupOnly(t *testing.T) {
	master, _, pooled := buildFederation(t, 3)
	for _, sql := range []string{
		`SELECT diagnosis FROM data GROUP BY diagnosis`,
		`SELECT diagnosis FROM data GROUP BY diagnosis HAVING count(*) > 3`,
	} {
		got, st, err := queryMerge(t, master, sql)
		if err != nil {
			t.Fatalf("merge query %q: %v", sql, err)
		}
		if !st.Pushdown {
			t.Errorf("%s: expected aggregate pushdown, part SQL %q", sql, st.PartSQL)
		}
		if st.RowsShipped != 9 { // 3 diagnoses × 3 parts
			t.Errorf("%s: shipped %d rows, want 9", sql, st.RowsShipped)
		}
		want, err := pooled.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		checkSame(t, sql, got, want)
	}
}

// genFederation builds a random federation of 1-5 parts over (g TEXT, k
// BIGINT, x DOUBLE, s TEXT, c DOUBLE), one part empty or single-row, plus
// the pooled table of every part's rows in part order. g, k, x and s
// carry NULLs; g's NULL is a group of its own; x is NULL throughout group
// 'c'; c is 0.1 in every row, constant up to rounding.
func genFederation(t *testing.T, rng *rand.Rand) (*DB, *DB) {
	t.Helper()
	schema := Schema{{"g", String}, {"k", Int64}, {"x", Float64}, {"s", String}, {"c", Float64}}
	orNull := func(v any) any {
		if rng.Intn(6) == 0 {
			return nil
		}
		return v
	}
	master, pooled := NewDB(), NewDB()
	pooledTab := NewTable(schema)
	mt := &MergeTable{Schema: schema, TableName: "data"}
	nParts := 1 + rng.Intn(5)
	small := rng.Intn(nParts)
	for p := 0; p < nParts; p++ {
		rows := 2 + rng.Intn(12)
		if p == small {
			rows = rng.Intn(2)
		}
		tab := NewTable(schema)
		for i := 0; i < rows; i++ {
			g := orNull([]string{"a", "b", "c"}[rng.Intn(3)])
			x := orNull(math.Round(rng.NormFloat64()*1e4) / 100)
			if g == "c" {
				x = nil
			}
			row := []any{g, orNull(int64(rng.Intn(200) - 100)), x, orNull([]string{"p", "q", "r"}[rng.Intn(3)]), 0.1}
			if err := tab.AppendRow(row...); err != nil {
				t.Fatal(err)
			}
			if err := pooledTab.AppendRow(row...); err != nil {
				t.Fatal(err)
			}
		}
		db := NewDB()
		db.RegisterTable("data", tab)
		mt.Parts = append(mt.Parts, &LocalPart{Name: fmt.Sprintf("p%d", p), DB: db})
	}
	master.RegisterMerge("data", mt)
	pooled.RegisterTable("data", pooledTab)
	return master, pooled
}

// TestMergeMatchesPooledGenerated is federated ≡ pooled on random inputs:
// every decomposable aggregate, with and without GROUP BY and under
// HAVING, ORDER BY and LIMIT, pushes down and answers as the pooled engine
// does: same column names and types, same NULLs, values within 1e-9.
//
// Two comparisons allow for the one-pass moment formulas, which both
// engines share but sum in different orders. A standard deviation is
// compared as its square: near zero the square root turns the variance's
// rounding noise (~1e-18 on the constant column) into ~1e-9 of its own.
// And corr over the constant column is not compared: whether its variance
// term rounds to zero (NULL) or to noise is decided by summation order, on
// either path.
func TestMergeMatchesPooledGenerated(t *testing.T) {
	aggs := []string{
		"count(*)", "count(x)", "count(s)", "sum(x)", "sum(k)", "avg(x)", "avg(k)",
		"min(x)", "max(x)", "min(k)", "max(k)", "min(s)", "max(s)",
		"stddev(x)", "stddev_samp(x)", "variance(x)", "var_samp(x)", "stddev(k)", "corr(x, k)",
		"sum(c)", "avg(c)", "stddev(c)", "stddev_samp(c)", "variance(c)", "var_samp(c)", "corr(c, x)",
	}
	shapes := []string{
		"SELECT %s AS v FROM data",
		"SELECT %s AS v FROM data WHERE k > -50",
		"SELECT g, %s AS v FROM data GROUP BY g",
		"SELECT g, s, %s AS v FROM data GROUP BY g, s ORDER BY g, s",
		"SELECT g, %s AS v FROM data GROUP BY g HAVING count(*) > 1 ORDER BY g LIMIT 2",
		"SELECT %s AS v, count(*) AS n FROM data HAVING count(*) > 0",
	}
	for seed := int64(1); seed <= 40; seed++ {
		master, pooled := genFederation(t, rand.New(rand.NewSource(seed)))
		for _, agg := range aggs {
			for _, shape := range shapes {
				sql := fmt.Sprintf(shape, agg)
				got, st, err := queryMerge(t, master, sql)
				if err != nil {
					t.Fatalf("seed %d: %s: %v", seed, sql, err)
				}
				if !st.Pushdown {
					t.Fatalf("seed %d: %s: not pushed down", seed, sql)
				}
				want, err := pooled.Query(sql)
				if err != nil {
					t.Fatalf("seed %d: pooled %s: %v", seed, sql, err)
				}
				if err := samePooled(got, want, agg); err != nil {
					t.Fatalf("seed %d: %s: %v", seed, sql, err)
				}
			}
		}
	}
}

// samePooled compares a merged result with the pooled one under
// TestMergeMatchesPooledGenerated's rules for the aggregate agg.
func samePooled(got, want *Table, agg string) error {
	if g, w := fmt.Sprint(got.Schema()), fmt.Sprint(want.Schema()); g != w {
		return fmt.Errorf("schema %s, want %s", g, w)
	}
	if got.NumRows() != want.NumRows() {
		return fmt.Errorf("%d rows, want %d", got.NumRows(), want.NumRows())
	}
	for j, col := range want.Schema() {
		if col.Name == "v" && agg == "corr(c, x)" {
			continue
		}
		for i := 0; i < want.NumRows(); i++ {
			a, b := got.Col(j).Value(i), want.Col(j).Value(i)
			af, aok := a.(float64)
			bf, bok := b.(float64)
			if col.Name == "v" && strings.HasPrefix(agg, "stddev") && aok && bok {
				af, bf = af*af, bf*bf
			}
			switch {
			case (a == nil) != (b == nil):
				return fmt.Errorf("%s row %d = %v, want %v", col.Name, i, a, b)
			case aok && bok:
				if math.Abs(af-bf) > 1e-9*(1+math.Abs(bf)) {
					return fmt.Errorf("%s row %d = %v, want %v", col.Name, i, a, b)
				}
			case a != b:
				return fmt.Errorf("%s row %d = %v (%T), want %v (%T)", col.Name, i, a, a, b, b)
			}
		}
	}
	return nil
}
