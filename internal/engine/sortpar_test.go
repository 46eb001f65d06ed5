package engine

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// ORDER BY equivalence: the radix sort of key images must produce output
// bit-identical to a stable row-at-a-time reference sort at every
// parallelism degree, including under NaN, ±Inf, negative zero, and NULL
// keys (the order is total: NULLs first, NaN above every number,
// NaN == NaN).

// buildSortFixture registers a table whose sort keys hit every awkward
// float and NULL case, with heavy duplication so tie-breaking is exercised.
func buildSortFixture(t *testing.T, db *DB, rows int) {
	t.Helper()
	tab := NewTable(Schema{
		{Name: "id", Type: Int64},
		{Name: "x", Type: Float64},
		{Name: "s", Type: String},
	})
	seed := uint64(99)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 11
	}
	for i := 0; i < rows; i++ {
		var x any = float64(next()%997) / 31.0
		switch i % 37 {
		case 0:
			x = math.NaN()
		case 5:
			x = math.Inf(1)
		case 11:
			x = math.Inf(-1)
		case 17:
			x = math.Copysign(0, -1) // -0.0 sorts equal to +0.0; bits must survive
		case 23:
			x = 0.0
		}
		if i%13 == 0 {
			x = nil
		}
		var s any = fmt.Sprintf("g%d", next()%7)
		if i%17 == 0 {
			s = nil
		}
		if err := tab.AppendRow(int64(i), x, s); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterTable("st", tab)
}

func TestParallelSortEquivalence(t *testing.T) {
	queries := []string{
		`SELECT id, x, s FROM st ORDER BY x`,
		`SELECT id, x, s FROM st ORDER BY x DESC`,
		`SELECT id, x, s FROM st ORDER BY s, x DESC`,
		`SELECT x, s FROM st ORDER BY s DESC, x`,
		`SELECT id, x FROM st ORDER BY x LIMIT 100`,
		`SELECT s, avg(x) AS m, count(*) AS n FROM st GROUP BY s ORDER BY m DESC, s`,
	}
	degrees := []int{1, 2, 4, runtime.NumCPU()}
	dbs := make([]*DB, len(degrees))
	for i, d := range degrees {
		// Small morsels force many runs (and several merge rounds) even at
		// this fixture size.
		dbs[i] = NewDB(WithParallelism(d), WithMorselSize(256))
		buildSortFixture(t, dbs[i], 5000)
	}
	for _, sql := range queries {
		base, err := dbs[0].Query(sql)
		if err != nil {
			t.Fatalf("%s: serial: %v", sql, err)
		}
		for i := 1; i < len(dbs); i++ {
			got, err := dbs[i].Query(sql)
			if err != nil {
				t.Fatalf("%s: par%d: %v", sql, degrees[i], err)
			}
			tablesIdentical(t, sql, base, got, "par1", fmt.Sprintf("par%d", degrees[i]))
		}
	}
}

func TestParallelSortNaNAndNullPlacement(t *testing.T) {
	db := NewDB(WithParallelism(4), WithMorselSize(64))
	buildSortFixture(t, db, 1000)
	res, err := db.Query(`SELECT x FROM st ORDER BY x`)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Col(0)
	// Ascending total order: NULL block, then numbers (-Inf..+Inf), then NaN.
	zone := 0 // 0 = nulls, 1 = numbers, 2 = nans
	prev := math.Inf(-1)
	for i := 0; i < v.Len(); i++ {
		switch {
		case v.IsNull(i):
			if zone != 0 {
				t.Fatalf("row %d: NULL after non-NULL", i)
			}
		case math.IsNaN(v.Float64s()[i]):
			zone = 2
		default:
			if zone == 2 {
				t.Fatalf("row %d: number after NaN block", i)
			}
			if zone == 0 {
				zone = 1
				prev = math.Inf(-1)
			}
			if x := v.Float64s()[i]; x < prev {
				t.Fatalf("row %d: %v < previous %v", i, x, prev)
			} else {
				prev = x
			}
		}
	}
}

func TestParallelSortExplainDegree(t *testing.T) {
	db := NewDB(WithParallelism(4), WithMorselSize(128))
	buildSortFixture(t, db, 2000)
	res, err := db.Query(`EXPLAIN ANALYZE SELECT x FROM st ORDER BY x`)
	if err != nil {
		t.Fatal(err)
	}
	var plan []string
	for i := 0; i < res.NumRows(); i++ {
		plan = append(plan, res.Col(0).StringAt(i))
	}
	found := false
	for _, line := range plan {
		if strings.Contains(line, "order") && strings.Contains(line, "par=4") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no sort node with par=4 in plan:\n%s", strings.Join(plan, "\n"))
	}
}

// refKey is one ORDER BY key of the reference sort: a column by name.
type refKey struct {
	col  string
	desc bool
}

func (k refKey) String() string {
	if k.desc {
		return k.col + " DESC"
	}
	return k.col
}

// referenceSort is the test oracle: a row-at-a-time sort.SliceStable over
// boxed cells, written independently of the production sort. NULLs order
// first, NaN after every number, -0.0 equal to 0.0, int64 as int64;
// stability supplies the row-index tie-break.
func referenceSort(t *testing.T, tab *Table, keys []refKey) *Table {
	t.Helper()
	cmpCells := func(a, b any) int {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		case b == nil:
			return 1
		}
		switch x := a.(type) {
		case string:
			return strings.Compare(x, b.(string))
		case bool:
			y := b.(bool)
			switch {
			case x == y:
				return 0
			case !x:
				return -1
			}
			return 1
		case int64:
			y := b.(int64)
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		case float64:
			y := b.(float64)
			nx, ny := math.IsNaN(x), math.IsNaN(y)
			switch {
			case nx && ny:
				return 0
			case nx:
				return 1
			case ny:
				return -1
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		}
		t.Fatalf("reference sort: unexpected cell type %T", a)
		return 0
	}
	cols := make([]*Vector, len(keys))
	for i, k := range keys {
		if cols[i] = tab.ColByName(k.col); cols[i] == nil {
			t.Fatalf("reference sort: no column %q", k.col)
		}
	}
	idx := make([]int32, tab.NumRows())
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for i, k := range keys {
			c := cmpCells(cols[i].Value(int(idx[a])), cols[i].Value(int(idx[b])))
			if c != 0 {
				return (c < 0) != k.desc
			}
		}
		return false
	})
	return tab.Gather(idx)
}

// checkAgainstReference runs SELECT * ... ORDER BY keys at every degree and
// compares each result with the oracle's ordering of the base table.
func checkAgainstReference(t *testing.T, build func(db *DB) *Table, keySets [][]refKey) {
	t.Helper()
	for _, d := range []int{1, 2, runtime.NumCPU()} {
		db := NewDB(WithParallelism(d), WithMorselSize(256))
		base := build(db)
		for _, keys := range keySets {
			parts := make([]string, len(keys))
			for i, k := range keys {
				parts[i] = k.String()
			}
			sql := "SELECT * FROM st ORDER BY " + strings.Join(parts, ", ")
			got, err := db.Query(sql)
			if err != nil {
				t.Fatalf("par%d: %s: %v", d, sql, err)
			}
			tablesIdentical(t, sql, referenceSort(t, base, keys), got, "reference", fmt.Sprintf("par%d", d))
		}
	}
}

func TestSortMatchesReferenceOnFloatFixture(t *testing.T) {
	checkAgainstReference(t, func(db *DB) *Table {
		buildSortFixture(t, db, 5000)
		return db.Table("st")
	}, [][]refKey{
		{{"x", false}},
		{{"x", true}},
		{{"s", false}, {"x", true}},
		{{"s", true}, {"x", false}, {"id", true}},
	})
}

// sortLCG is the generated-key tests' deterministic stream.
func sortLCG(seed uint64) func() uint64 {
	return func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 11
	}
}

// buildGeneratedSortTable registers the generated key table as "st": Int64
// edge values (neighbours beyond 2^53, MinInt64, MaxInt64), NaN, ±Inf and
// -0.0, 23 strings, bools, and NULLs in every key column.
func buildGeneratedSortTable(t *testing.T, db *DB) *Table {
	t.Helper()
	big := []int64{1 << 53, 1<<53 + 1, 1<<53 + 2, 1<<62 + 1, 1 << 62, -(1 << 62) - 1, -(1 << 62), math.MaxInt64, math.MinInt64, 0, -1, 7}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5, -1.5, 1e300, -1e300}
	next := sortLCG(7) // the same table at every degree
	tab := NewTable(Schema{
		{Name: "id", Type: Int64},
		{Name: "big", Type: Int64},
		{Name: "f", Type: Float64},
		{Name: "s", Type: String},
		{Name: "b", Type: Bool},
	})
	for i := 0; i < 3000; i++ {
		var bigv, fv, sv, bv any = big[next()%uint64(len(big))], floats[next()%uint64(len(floats))],
			fmt.Sprintf("k%02d", next()%23), next()%2 == 0
		if next()%11 == 0 {
			bigv = nil
		}
		if next()%7 == 0 {
			fv = nil
		}
		if next()%13 == 0 {
			sv = nil
		}
		if next()%5 == 0 {
			bv = nil
		}
		if err := tab.AppendRow(int64(i), bigv, fv, sv, bv); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterTable("st", tab)
	return tab
}

// TestSortMatchesReferenceOnGeneratedKeys sorts a generated table under
// generated multi-key ORDER BY lists. The Int64 column holds neighbours
// beyond 2^53, which collapse to equal float64s: a sort that compares
// integer keys through float64 mis-orders them.
func TestSortMatchesReferenceOnGeneratedKeys(t *testing.T) {
	build := func(db *DB) *Table { return buildGeneratedSortTable(t, db) }
	next := sortLCG(99)
	cols := []string{"big", "f", "s", "b"}
	keySets := [][]refKey{{{"big", false}}, {{"big", true}, {"f", false}}}
	for n := 0; n < 24; n++ {
		keys := make([]refKey, 1+next()%3)
		for i := range keys {
			keys[i] = refKey{cols[next()%uint64(len(cols))], next()%2 == 0}
		}
		keySets = append(keySets, keys)
	}
	checkAgainstReference(t, build, keySets)
}

// TestTopKMatchesFullSortGenerated checks ORDER BY … LIMIT k OFFSET o (the
// top-k operator) against rows [o, o+k) of the same statement's full sort,
// on the generated key table. The keys include a projection alias (g) and
// a source column the projection drops (b); with 256-row morsels the
// k' = k+o values straddle morsel boundaries, and b's two values tie
// hundreds of rows.
func TestTopKMatchesFullSortGenerated(t *testing.T) {
	next := sortLCG(5)
	terms := []string{"g", "big", "s", "b", "id"}
	limits := [][2]int{{1, 0}, {17, 3}, {255, 0}, {256, 0}, {1, 256}, {100, 157}, {300, 255}, {700, 100}}
	type query struct{ limited, full string }
	var queries []query
	for n := 0; n < 24; n++ {
		keys := make([]string, 1+next()%3)
		for i := range keys {
			keys[i] = terms[next()%uint64(len(terms))]
			if next()%2 == 0 {
				keys[i] += " DESC"
			}
		}
		full := "SELECT id, f AS g, s FROM st ORDER BY " + strings.Join(keys, ", ")
		l := limits[n%len(limits)]
		queries = append(queries, query{fmt.Sprintf("%s LIMIT %d OFFSET %d", full, l[0], l[1]), full})
	}
	for _, d := range []int{1, 2, runtime.NumCPU()} {
		db := NewDB(WithParallelism(d), WithMorselSize(256))
		buildGeneratedSortTable(t, db)
		for _, q := range queries {
			if plan := planLines(t, db, "EXPLAIN "+q.limited); !strings.Contains(plan[0], "topk") {
				t.Fatalf("%s: plan root %q is not a topk", q.limited, plan[0])
			}
			got, err := db.Query(q.limited)
			if err != nil {
				t.Fatalf("par%d: %s: %v", d, q.limited, err)
			}
			full, err := db.Query(q.full)
			if err != nil {
				t.Fatalf("par%d: %s: %v", d, q.full, err)
			}
			var k, o int
			fmt.Sscanf(q.limited[strings.LastIndex(q.limited, "LIMIT"):], "LIMIT %d OFFSET %d", &k, &o)
			want := full.Slice(min(o, full.NumRows()), min(o+k, full.NumRows()))
			tablesIdentical(t, q.limited, want, got, "full sort", fmt.Sprintf("par%d", d))
		}
	}
}

// TestTopKChargesCandidates: top-k copies its candidate rows out of the
// input, and the copy is charged to the statement. With limit + offset
// above the morsel size every morsel keeps all of its rows, so the
// statement's peak covers the whole input.
func TestTopKChargesCandidates(t *testing.T) {
	const rows = 20_000
	ids, xs := make([]int64, rows), make([]float64, rows)
	for i := range ids {
		ids[i], xs[i] = int64(i), float64((i*7919)%rows)
	}
	tab, err := NewTableFromVectors(Schema{{Name: "id", Type: Int64}, {Name: "x", Type: Float64}},
		[]*Vector{NewInt64Vector(ids, nil), NewFloat64Vector(xs, nil)})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2} {
		db := NewDB(WithParallelism(par))
		db.RegisterTable("big", tab)
		res, qs, err := db.QueryWithStats(`SELECT id FROM big ORDER BY x LIMIT 10000`)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if qs.Root.Op != "topk" || res.NumRows() != 10_000 {
			t.Fatalf("par=%d: %d rows from plan\n%s\nwant 10000 from a topk", par, res.NumRows(), qs.Root)
		}
		if qs.MemPeakBytes < tab.ByteSize() {
			t.Errorf("par=%d: peak %d bytes, want ≥ the %d-byte input every morsel keeps", par, qs.MemPeakBytes, tab.ByteSize())
		}
	}
}

// TestSortStringKeysWhileAppending sorts a string column whose dictionary
// codes run against the values' byte order and hold more values than the
// column uses, while a writer appends rows with new strings, so that every
// write publishes a covering clone of the dictionary. Each answer must be
// the oracle's order of the table version it read: the final table's
// prefix of its row count.
func TestSortStringKeysWhileAppending(t *testing.T) {
	dict := NewVector(String)
	for i := 199; i >= 0; i-- { // code c holds "v(199-c)": reverse byte order
		dict.AppendString(fmt.Sprintf("v%03d", i))
	}
	dict.AppendNull()
	next := sortLCG(11)
	sel := make([]int32, 2000)
	ids, xs := make([]int64, len(sel)), make([]float64, len(sel))
	for i := range sel {
		sel[i] = int32(next() % 41 * 5 % 201) // 41 of the dictionary's 201 rows, the NULL among them
		ids[i], xs[i] = int64(i), float64(next()%17)
	}
	schema := Schema{{Name: "id", Type: Int64}, {Name: "s", Type: String}, {Name: "x", Type: Float64}}
	tab, err := NewTableFromVectors(schema, []*Vector{NewInt64Vector(ids, nil), dict.Gather(sel), NewFloat64Vector(xs, nil)})
	if err != nil {
		t.Fatal(err)
	}
	keySets := [][]refKey{{{"s", false}, {"id", false}}, {{"s", true}, {"x", false}}, {{"x", true}, {"s", false}}}
	for _, d := range []int{1, 2, runtime.NumCPU()} {
		db := NewDB(WithParallelism(d), WithMorselSize(256))
		db.RegisterTable("st", tab)
		done := make(chan error, 1)
		go func() {
			for w := 0; w < 20; w++ {
				id := int64(len(sel) + 3*w)
				rows := NewTable(schema)
				for j, s := range []any{fmt.Sprintf("w%02d", w), "v050", nil} {
					if err := rows.AppendRow(id+int64(j), s, float64(w%5)); err != nil {
						done <- err
						return
					}
				}
				if err := db.Append("st", rows); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		type answer struct {
			keys []refKey
			got  *Table
		}
		var answers []answer
		for running := true; running; {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				running = false
			default:
			}
			for _, keys := range keySets {
				parts := make([]string, len(keys))
				for i, k := range keys {
					parts[i] = k.String()
				}
				got, err := db.Query("SELECT * FROM st ORDER BY " + strings.Join(parts, ", "))
				if err != nil {
					t.Fatal(err)
				}
				answers = append(answers, answer{keys, got})
			}
		}
		final := db.Table("st")
		for _, a := range answers {
			want := referenceSort(t, final.Slice(0, a.got.NumRows()), a.keys)
			tablesIdentical(t, fmt.Sprint(a.keys), want, a.got, "reference", fmt.Sprintf("par%d", d))
		}
	}
}

// FuzzOrderByMatchesReference decodes its input into a small typed table —
// Int64 edge values, NaN, ±Inf, -0.0, strings, bools, NULLs in every
// column — and an ORDER BY spec with an optional LIMIT/OFFSET, and checks
// the engine's answer against the oracle's order (its rows [offset,
// offset+limit) under a LIMIT).
//
//	go test -fuzz=FuzzOrderByMatchesReference -fuzztime=10s -run '^$' ./internal/engine/
func FuzzOrderByMatchesReference(f *testing.F) {
	f.Add([]byte{40, 0x12, 0x07, 0x00, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{200, 0x31, 0x3a, 0x95, 0xff, 0x00, 0x7f, 0x80, 0x13, 0x37})
	f.Add([]byte{255, 0x2b, 0x48, 0xc1, 0x51, 0xa2, 0x03, 0xf4, 0x65, 0x96})
	ints := []any{nil, int64(math.MinInt64), int64(math.MaxInt64), int64(0), int64(-1), int64(1 << 53), int64(1<<53 + 1), int64(7)}
	floats := []any{nil, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0.0, 1.5, -1.5}
	strs := []any{nil, "", "a", "ab", "b", "B", "é", "a\x00"}
	bools := []any{nil, true, false, true}
	cols := []string{"i", "f", "s", "b"}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		rows, spec, lim, body := int(data[0])+1, data[1], data[2], data[3:]
		tab := NewTable(Schema{
			{Name: "id", Type: Int64}, {Name: "i", Type: Int64}, {Name: "f", Type: Float64},
			{Name: "s", Type: String}, {Name: "b", Type: Bool},
		})
		for r := 0; r < rows; r++ {
			c := func(j int) byte { return body[(4*r+j)%len(body)] + byte(r/len(body)*(j+1)) }
			if err := tab.AppendRow(int64(r), ints[c(0)%8], floats[c(1)%8], strs[c(2)%8], bools[c(3)%4]); err != nil {
				t.Fatal(err)
			}
		}
		keys := make([]refKey, 1+int(spec>>6)%3)
		for i := range keys {
			keys[i] = refKey{cols[spec>>(2*i)%4], (spec^lim)>>i&1 == 1}
		}
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k.String()
		}
		sql := "SELECT * FROM st ORDER BY " + strings.Join(parts, ", ")
		want := referenceSort(t, tab, keys)
		if lim&0x80 != 0 {
			k, o := int(lim&0x3f), int(lim>>6&1)*int(lim&0x0f)
			sql += fmt.Sprintf(" LIMIT %d OFFSET %d", k, o)
			want = want.Slice(min(o, rows), min(o+k, rows))
		}
		db := NewDB(WithParallelism(2), WithMorselSize(64))
		db.RegisterTable("st", tab)
		got, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		tablesIdentical(t, sql, want, got, "reference", "engine")
	})
}

// TestSortAllocationsBounded pins the radix sort's cost model: a sort
// allocates one pair of image and one pair of row buffers, each key's pass
// images the key into them and allocates only its per-morsel digit
// counts, so a two-key sort over an Int64 key allocates a handful of
// buffers per morsel, not anything per row or per comparison.
func TestSortAllocationsBounded(t *testing.T) {
	const rows = 100_000
	ids := make([]int64, rows)
	xs := make([]float64, rows)
	for i := range ids {
		ids[i] = int64((i * 7919) % rows)
		xs[i] = float64(i % 1000)
	}
	tab, err := NewTableFromVectors(
		Schema{{Name: "row_id", Type: Int64}, {Name: "x", Type: Float64}},
		[]*Vector{NewInt64Vector(ids, nil), NewFloat64Vector(xs, nil)})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(WithParallelism(1))
	db.RegisterTable("st", tab)
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := db.Query(`SELECT row_id, x FROM st ORDER BY x DESC, row_id`); err != nil {
			t.Fatal(err)
		}
	})
	// A few allocations per morsel (slices, projections, digit counts) is
	// the expected order; one per row would be hundreds of thousands.
	if limit := float64(40 * (rows/DefaultMorselSize + 1)); allocs > limit {
		t.Fatalf("two-key sort of %d rows made %.0f allocations, want <= %.0f", rows, allocs, limit)
	}
}
