package engine

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// The parallel/serial equivalence property: for every query in the corpus,
// the morsel-parallel executor must produce bit-identical results at
// parallelism 1 (the serial oracle), 2, and NumCPU. The determinism comes
// from fixing the morsel decomposition and the combine order, so the test
// uses a small morsel size (128) to force many morsels even on small
// tables, and runs under -race in `make check` to shake out data races.

// buildParallelFixture registers deterministic tables exercising every
// column type, NULLs in every column, and enough rows to span many morsels.
func buildParallelFixture(db *DB, rows int) error {
	t := NewTable(Schema{
		{Name: "id", Type: Int64},
		{Name: "x", Type: Float64},
		{Name: "y", Type: Float64},
		{Name: "cat", Type: String},
		{Name: "flag", Type: Bool},
	})
	// "a|" and "\x00N" pin the key-encoding collision bug forever: under the
	// old stringified keys ("%v|" with a "\x00N|" NULL sentinel) they collide
	// with neighbouring tuples and with NULL; the typed kernels must keep
	// them distinct at every parallelism degree.
	cats := []string{"cn", "mci", "ad", "a|", "\x00N"}
	seed := uint64(42)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 11
	}
	for i := 0; i < rows; i++ {
		var x, y, cat, flag any
		x = float64(next()%10000)/1000.0 - 5
		y = float64(next()%10000) / 700.0
		cat = cats[next()%uint64(len(cats))]
		flag = next()%3 == 0
		if next()%17 == 0 {
			x = nil
		}
		if next()%23 == 0 {
			y = nil
		}
		if next()%19 == 0 {
			cat = nil
		}
		if next()%29 == 0 {
			flag = nil
		}
		if err := t.AppendRow(int64(i), x, y, cat, flag); err != nil {
			return err
		}
	}
	db.RegisterTable("t", t)

	u := NewTable(Schema{
		{Name: "id", Type: Int64},
		{Name: "score", Type: Float64},
		{Name: "site", Type: String},
	})
	for i := 0; i < rows; i++ {
		// Skewed keys: every third id missing, some ids duplicated.
		if i%3 == 0 {
			continue
		}
		var id any = int64(i)
		if i%31 == 0 {
			id = nil
		}
		if err := u.AppendRow(id, float64(next()%3000)/100.0, fmt.Sprintf("s%d", next()%4)); err != nil {
			return err
		}
		if i%11 == 0 {
			if err := u.AppendRow(int64(i), float64(next()%3000)/100.0, "dup"); err != nil {
				return err
			}
		}
	}
	db.RegisterTable("u", u)
	return nil
}

// buildMergeFixture registers a 3-part merge table over per-part DBs that
// share the outer DB's execution configuration.
func buildMergeFixture(db *DB, opts ...Option) error {
	schema := Schema{
		{Name: "hospital", Type: String},
		{Name: "age", Type: Float64},
		{Name: "mmse", Type: Float64},
	}
	mt := &MergeTable{Schema: schema, TableName: "cohort"}
	seed := uint64(7)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 11
	}
	for p := 0; p < 3; p++ {
		pdb := NewDB(opts...)
		pt := NewTable(schema)
		for i := 0; i < 500; i++ {
			var age any = 50 + float64(next()%400)/10.0
			if next()%13 == 0 {
				age = nil
			}
			if err := pt.AppendRow(fmt.Sprintf("h%d", p), age, float64(next()%300)/10.0); err != nil {
				return err
			}
		}
		pdb.RegisterTable("cohort", pt)
		mt.Parts = append(mt.Parts, &LocalPart{Name: fmt.Sprintf("h%d", p), DB: pdb})
	}
	db.RegisterMerge("cohort", mt)
	return nil
}

// parallelCorpus is the generated-SELECT corpus: filters, projections,
// group-bys over every aggregate, joins, and ORDER BY/LIMIT tails.
var parallelCorpus = []string{
	`SELECT * FROM t WHERE x > 0.5`,
	`SELECT id, x * 2 + 1 AS x2, upper(cat) AS c FROM t WHERE NOT flag AND y < 10`,
	`SELECT * FROM t WHERE cat IN ('cn', 'ad') AND x IS NOT NULL LIMIT 40 OFFSET 13`,
	`SELECT count(*) AS n, count(x) AS nx, count(DISTINCT cat) AS dc FROM t`,
	`SELECT sum(x) AS s, avg(x) AS m, min(x) AS lo, max(x) AS hi, stddev(x) AS sd, variance(y) AS vy FROM t`,
	`SELECT corr(x, y) AS r, median(x) AS md, quantile(x, 0.9) AS q90 FROM t`,
	`SELECT min(cat) AS lo, max(cat) AS hi FROM t`,
	`SELECT cat, count(*) AS n, sum(x) AS s, avg(y) AS m FROM t GROUP BY cat ORDER BY cat`,
	`SELECT cat, flag, count(*) AS n, stddev(x) AS sd FROM t GROUP BY cat, flag ORDER BY cat, flag`,
	`SELECT cat, avg(x) AS m FROM t WHERE y > 2 GROUP BY cat HAVING count(*) > 10 ORDER BY m DESC`,
	`SELECT cat, median(x) AS md, count(DISTINCT id) AS ids FROM t GROUP BY cat ORDER BY cat`,
	`SELECT a.id, a.x, b.score FROM t a JOIN u b ON a.id = b.id WHERE a.x > -1 ORDER BY a.id, b.score`,
	`SELECT b.site, count(*) AS n, avg(a.x) AS m FROM t a JOIN u b ON a.id = b.id GROUP BY b.site ORDER BY b.site`,
	`SELECT a.id, b.score FROM t a LEFT JOIN u b ON a.id = b.id WHERE a.flag ORDER BY a.id, b.score`,
	`SELECT x, y FROM t WHERE flag ORDER BY x DESC, id LIMIT 25`,
}

var mergeCorpus = []string{
	`SELECT hospital, avg(age) AS m, count(*) AS n FROM cohort GROUP BY hospital ORDER BY hospital`, // pushdown
	`SELECT avg(age) AS m, stddev(mmse) AS sd FROM cohort WHERE age > 60`,                           // pushdown + where
	`SELECT hospital, median(mmse) AS md FROM cohort GROUP BY hospital ORDER BY hospital`,           // materialize
	`SELECT * FROM cohort WHERE mmse > 25 ORDER BY hospital, age, mmse`,                             // materialize rows
}

// tablesIdentical asserts bit-identical results: same schema, same rows,
// same NULL positions, float cells compared by bit pattern.
func tablesIdentical(t *testing.T, sql string, a, b *Table, labelA, labelB string) {
	t.Helper()
	if err := tableDiff(sql, a, b, labelA, labelB); err != nil {
		t.Fatal(err)
	}
}

// tableDiff is tablesIdentical's check as an error, for goroutines.
func tableDiff(sql string, a, b *Table, labelA, labelB string) error {
	if !a.Schema().Equal(b.Schema()) {
		return fmt.Errorf("%s: schema mismatch %s=%v %s=%v", sql, labelA, a.Schema().Names(), labelB, b.Schema().Names())
	}
	if a.NumRows() != b.NumRows() {
		return fmt.Errorf("%s: row count %s=%d %s=%d", sql, labelA, a.NumRows(), labelB, b.NumRows())
	}
	for i := 0; i < a.NumRows(); i++ {
		for j := 0; j < a.NumCols(); j++ {
			ca, cb := a.Col(j), b.Col(j)
			if ca.IsNull(i) != cb.IsNull(i) {
				return fmt.Errorf("%s: row %d col %s NULL mismatch: %s=%v %s=%v",
					sql, i, a.Schema()[j].Name, labelA, ca.IsNull(i), labelB, cb.IsNull(i))
			}
			if ca.IsNull(i) {
				continue
			}
			var same bool
			if ca.Type() == Float64 {
				same = math.Float64bits(ca.Float64s()[i]) == math.Float64bits(cb.Float64s()[i])
			} else {
				same = fmt.Sprint(ca.Value(i)) == fmt.Sprint(cb.Value(i))
			}
			if !same {
				return fmt.Errorf("%s: row %d col %s differs: %s=%v %s=%v",
					sql, i, a.Schema()[j].Name, labelA, ca.Value(i), labelB, cb.Value(i))
			}
		}
	}
	return nil
}

func TestParallelSerialEquivalence(t *testing.T) {
	const morsel = 128 // many morsels over the ~1500-row fixture
	degrees := []int{1, 2, runtime.NumCPU()}
	dbs := make([]*DB, len(degrees))
	for i, d := range degrees {
		dbs[i] = NewDB(WithParallelism(d), WithMorselSize(morsel))
		if err := buildParallelFixture(dbs[i], 1500); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range parallelCorpus {
		ref, err := dbs[0].Query(sql)
		if err != nil {
			t.Fatalf("parallelism 1: %s: %v", sql, err)
		}
		if ref.NumRows() == 0 {
			t.Fatalf("%s: corpus query returned no rows — not a useful equivalence case", sql)
		}
		for i := 1; i < len(degrees); i++ {
			got, err := dbs[i].Query(sql)
			if err != nil {
				t.Fatalf("parallelism %d: %s: %v", degrees[i], sql, err)
			}
			tablesIdentical(t, sql, ref, got, "par=1", fmt.Sprintf("par=%d", degrees[i]))
		}
	}
}

func TestParallelSerialEquivalenceMerge(t *testing.T) {
	const morsel = 128
	degrees := []int{1, 2, runtime.NumCPU()}
	dbs := make([]*DB, len(degrees))
	for i, d := range degrees {
		dbs[i] = NewDB(WithParallelism(d), WithMorselSize(morsel))
		if err := buildMergeFixture(dbs[i], WithParallelism(d), WithMorselSize(morsel)); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range mergeCorpus {
		ref, err := dbs[0].Query(sql)
		if err != nil {
			t.Fatalf("parallelism 1: %s: %v", sql, err)
		}
		for i := 1; i < len(degrees); i++ {
			got, err := dbs[i].Query(sql)
			if err != nil {
				t.Fatalf("parallelism %d: %s: %v", degrees[i], sql, err)
			}
			tablesIdentical(t, sql, ref, got, "par=1", fmt.Sprintf("par=%d", degrees[i]))
		}
	}
}

// TestParallelismIsObservable pins the observability surface: EXPLAIN
// ANALYZE must report the fan-out degree and morsel count on parallel
// stages, plain EXPLAIN must predict the degree, and both must surface in
// span attributes.
func TestParallelismIsObservable(t *testing.T) {
	db := NewDB(WithParallelism(4), WithMorselSize(128))
	if err := buildParallelFixture(db, 1500); err != nil {
		t.Fatal(err)
	}
	_, qs, err := db.QueryWithStats(`EXPLAIN ANALYZE SELECT cat, avg(x) AS m FROM t WHERE y > 1 GROUP BY cat`)
	if err != nil {
		t.Fatal(err)
	}
	byOp := map[string]*PlanNode{}
	qs.Root.Walk(func(n *PlanNode) { byOp[n.Op] = n })
	for _, op := range []string{"filter", "aggregate"} {
		n := byOp[op]
		if n == nil {
			t.Fatalf("no %s node in plan:\n%s", op, qs.Root)
		}
		if n.Parallelism != 4 {
			t.Errorf("%s Parallelism = %d, want 4", op, n.Parallelism)
		}
		if n.Morsels < 2 {
			t.Errorf("%s Morsels = %d, want >= 2 (1500 rows / 128-row morsels)", op, n.Morsels)
		}
		attrs := n.Attrs()
		if attrs["parallelism"] != "4" {
			t.Errorf("%s attrs missing parallelism: %v", op, attrs)
		}
		if attrs["morsels"] == "" {
			t.Errorf("%s attrs missing morsels: %v", op, attrs)
		}
	}
	if line := qs.Root.Render(true); !strings.Contains(strings.Join(line, "\n"), "par=4") {
		t.Errorf("EXPLAIN ANALYZE rendering does not show parallelism:\n%s", strings.Join(line, "\n"))
	}

	// Plain EXPLAIN predicts the degree from catalog row counts.
	res, err := db.Query(`EXPLAIN SELECT cat, avg(x) AS m FROM t WHERE y > 1 GROUP BY cat`)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i := 0; i < res.NumRows(); i++ {
		lines = append(lines, res.Col(0).StringAt(i))
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "[par=4]") {
		t.Errorf("plain EXPLAIN does not predict parallelism:\n%s", joined)
	}
	if strings.Contains(joined, "rows_in=") {
		t.Errorf("plain EXPLAIN must not carry measured stats:\n%s", joined)
	}
}

// TestParallelErrorPropagation: an evaluation error inside one morsel must
// surface exactly like the serial path's error, at every degree.
func TestParallelErrorPropagation(t *testing.T) {
	for _, d := range []int{1, 2, runtime.NumCPU()} {
		db := NewDB(WithParallelism(d), WithMorselSize(128))
		if err := buildParallelFixture(db, 1000); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Query(`SELECT * FROM t WHERE nope > 1`); err == nil {
			t.Errorf("parallelism %d: filter over unknown column did not error", d)
		}
		if _, err := db.Query(`SELECT quantile(x, y) AS q FROM t`); err == nil {
			t.Errorf("parallelism %d: non-literal quantile fraction did not error", d)
		}
		// Empty input still validates aggregate arguments.
		if _, err := db.Query(`SELECT corr(x) AS r FROM t WHERE x > 1e18`); err == nil {
			t.Errorf("parallelism %d: corr arity error suppressed on empty input", d)
		}
	}
}

func TestParallelForPanicPropagates(t *testing.T) {
	ec := &ExecContext{Parallelism: 4, MorselSize: 64}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic in a morsel task did not propagate to the caller")
		}
	}()
	_ = ec.parallelFor(64, func(i int) error {
		if i == 7 {
			panic("boom")
		}
		return nil
	})
}

func TestMorselDecompositionIgnoresParallelism(t *testing.T) {
	a := &ExecContext{Parallelism: 1, MorselSize: 256}
	b := &ExecContext{Parallelism: 16, MorselSize: 256}
	ma, mb := a.morselsOf(10_000), b.morselsOf(10_000)
	if len(ma) != len(mb) {
		t.Fatalf("morsel count differs by degree: %d vs %d", len(ma), len(mb))
	}
	for i := range ma {
		if ma[i] != mb[i] {
			t.Fatalf("morsel %d differs: %v vs %v", i, ma[i], mb[i])
		}
	}
	if len(ma) != 40 {
		t.Errorf("10000 rows / 256 = %d morsels, want 40", len(ma))
	}
	if last := ma[len(ma)-1]; last.hi != 10_000 {
		t.Errorf("last morsel ends at %d, want 10000", last.hi)
	}
}

func TestMorselSizeRoundsToWordMultiple(t *testing.T) {
	for in, want := range map[int]int{1: 64, 64: 64, 65: 128, 100: 128, 4096: 4096} {
		if got := roundMorselSize(in); got != want {
			t.Errorf("roundMorselSize(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestGatherRowsUnalignedMorselSize sets ExecContext.MorselSize to a value
// that is no multiple of 64: the morsels still start on bitmap words, so
// the parallel gather of a nullable column equals the serial one.
func TestGatherRowsUnalignedMorselSize(t *testing.T) {
	ec := &ExecContext{Parallelism: 4, MorselSize: 100}
	if got := ec.morselSize(); got != 128 {
		t.Fatalf("morselSize() = %d, want 128", got)
	}
	v := NewVector(Int64)
	for i := 0; i < 5000; i++ {
		if i%3 == 0 {
			v.AppendNull()
		} else {
			v.AppendInt64(int64(i))
		}
	}
	tab, err := NewTableFromVectors(Schema{{Name: "x", Type: Int64}}, []*Vector{v})
	if err != nil {
		t.Fatal(err)
	}
	sel := make([]int32, 5000)
	for i := range sel {
		sel[i] = int32((i * 7919) % 5000)
	}
	got, err := ec.gatherRows(tab, sel)
	if err != nil {
		t.Fatal(err)
	}
	want := tab.Gather(sel)
	for r := range sel {
		if g, w := got.Col(0).Value(r), want.Col(0).Value(r); g != w {
			t.Fatalf("row %d: %v, want %v", r, g, w)
		}
	}
}

func TestVectorSliceAndGatherOuter(t *testing.T) {
	v := NewVector(String)
	for i := 0; i < 200; i++ {
		if i%7 == 0 {
			v.AppendNull()
		} else {
			v.AppendString(fmt.Sprintf("v%d", i%5))
		}
	}
	s := v.Slice(64, 200) // word-aligned: zero-copy view
	if s.Len() != 136 {
		t.Fatalf("slice len = %d, want 136", s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		if s.IsNull(i) != v.IsNull(64+i) {
			t.Fatalf("slice row %d null mismatch", i)
		}
		if !s.IsNull(i) && s.StringAt(i) != v.StringAt(64+i) {
			t.Fatalf("slice row %d = %q, want %q", i, s.StringAt(i), v.StringAt(64+i))
		}
	}

	out := v.GatherOuter([]int32{3, -1, 8, -1, 0})
	if out.Len() != 5 {
		t.Fatalf("GatherOuter len = %d", out.Len())
	}
	if !out.IsNull(1) || !out.IsNull(3) {
		t.Error("GatherOuter -1 rows must be NULL")
	}
	if out.IsNull(0) || out.StringAt(0) != v.StringAt(3) {
		t.Errorf("GatherOuter row 0 = %v, want %q", out.Value(0), v.StringAt(3))
	}
	if out.StrDict() == v.StrDict() {
		t.Error("GatherOuter must not share (and so never mutates) the source dictionary")
	}
	// Row 4 selects source row 0, which is NULL: null-ness must propagate.
	if !out.IsNull(4) {
		t.Error("GatherOuter must propagate source NULLs")
	}
}

func TestMergeValidMasksSlicedTails(t *testing.T) {
	b := NewBitmap(200)
	for i := 0; i < 200; i += 3 {
		b.Set(i, false)
	}
	s := b.slice(64, 200) // shares words; bits past row 135 are stray
	out := mergeValid(s, nil, 136)
	for i := 0; i < 136; i++ {
		if out.Get(i) != b.Get(64+i) {
			t.Fatalf("row %d: merged validity %v, want %v", i, out.Get(i), b.Get(64+i))
		}
	}
}

func TestConcatTablesMatchesAppend(t *testing.T) {
	schema := Schema{
		{Name: "x", Type: Float64},
		{Name: "s", Type: String},
		{Name: "b", Type: Bool},
	}
	mk := func(start int) *Table {
		p := NewTable(schema)
		for i := 0; i < 100; i++ {
			if i%9 == 0 {
				_ = p.AppendRow(nil, nil, nil)
				continue
			}
			_ = p.AppendRow(float64(start+i), fmt.Sprintf("s%d", (start+i)%6), i%2 == 0)
		}
		return p
	}
	parts := []*Table{mk(0), mk(1000), mk(2000)}
	want := NewTable(schema)
	for _, p := range parts {
		if err := want.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, par := range []int{1, 4} {
		ec := &ExecContext{Parallelism: par, MorselSize: 64}
		got, err := ec.concatTables(schema, parts)
		if err != nil {
			t.Fatal(err)
		}
		tablesIdentical(t, fmt.Sprintf("concat par=%d", par), want, got, "append", "concat")
	}
	// Schema mismatch must error like Append did.
	ec := &ExecContext{}
	if _, err := ec.concatTables(Schema{{Name: "z", Type: Int64}}, parts); err == nil {
		t.Error("concatTables accepted mismatched schemas")
	}
}
