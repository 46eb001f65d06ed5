package engine

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// ORDER BY equivalence: the run sort + pairwise merge must produce output
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

// TestSortMatchesReferenceOnGeneratedKeys sorts a generated table under
// generated multi-key ORDER BY lists. The Int64 column holds neighbours
// beyond 2^53, which collapse to equal float64s: a sort that compares
// integer keys through float64 mis-orders them.
func TestSortMatchesReferenceOnGeneratedKeys(t *testing.T) {
	lcg := func(seed uint64) func() uint64 {
		return func() uint64 {
			seed = seed*6364136223846793005 + 1442695040888963407
			return seed >> 11
		}
	}
	big := []int64{1 << 53, 1<<53 + 1, 1<<53 + 2, 1<<62 + 1, 1 << 62, -(1 << 62) - 1, -(1 << 62), math.MaxInt64, math.MinInt64, 0, -1, 7}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5, -1.5, 1e300, -1e300}
	build := func(db *DB) *Table {
		next := lcg(7) // the same table at every degree
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
	next := lcg(99)
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

// TestSortAllocationsBounded pins the comparator's cost model: keys are
// prepared once per sort, so a two-key sort over an Int64 key allocates a
// handful of buffers, not a float64 column per comparison.
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
	// A few allocations per morsel (slices, projections, run bookkeeping)
	// is the expected order; one per comparison would be millions.
	if limit := float64(40 * (rows/DefaultMorselSize + 1)); allocs > limit {
		t.Fatalf("two-key sort of %d rows made %.0f allocations, want <= %.0f", rows, allocs, limit)
	}
}
