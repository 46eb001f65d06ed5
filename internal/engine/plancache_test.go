package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"mip/internal/obs"
)

// planCacheDB builds a DB over the given private cache with a small table.
func planCacheDB(t *testing.T, pc *PlanCache) *DB {
	t.Helper()
	db := NewDB(WithPlanCache(pc))
	tab := NewTable(Schema{
		{Name: "x", Type: Float64},
		{Name: "k", Type: String},
	})
	for i := 0; i < 64; i++ {
		if err := tab.AppendRow(float64(i), fmt.Sprintf("k%d", i%4)); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterTable("t", tab)
	return db
}

func TestPlanCacheHits(t *testing.T) {
	pc := NewPlanCache(8)
	db := planCacheDB(t, pc)
	sql := `SELECT k, avg(x) AS m FROM t GROUP BY k ORDER BY k`

	for i := 0; i < 3; i++ {
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	s := pc.Stats()
	if s.Misses != 1 || s.Hits != 2 || s.Entries != 1 {
		t.Fatalf("after 3 identical queries: %+v, want 2 hits / 1 miss / 1 entry", s)
	}
}

// TestPlanCacheSharedAcrossDBs: an entry is keyed by its text alone, so k
// DBs running one statement through one cache parse it once.
func TestPlanCacheSharedAcrossDBs(t *testing.T) {
	const k = 4
	pc := NewPlanCache(8)
	sql := `SELECT k, count(*) AS n FROM t GROUP BY k ORDER BY k`
	for i := 0; i < k; i++ {
		if _, err := planCacheDB(t, pc).Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	if s := pc.Stats(); s.Misses != 1 || s.Hits != k-1 || s.Entries != 1 {
		t.Fatalf("%d DBs, one text: %+v, want 1 miss / %d hits / 1 entry", k, s, k-1)
	}
}

// TestPlanCacheSurvivesDDL: a parse depends on syntax alone, so dropping
// and re-creating t with another type keeps the entry, and execution binds
// the cached statement to the catalog it reads: the new type comes back,
// and a column that no longer exists fails as it would uncached.
func TestPlanCacheSurvivesDDL(t *testing.T) {
	pc := NewPlanCache(8)
	cached := NewDB(WithPlanCache(pc))
	plain := NewDB(WithPlanCache(nil))
	both := func(sql string) (*Table, error) {
		t.Helper()
		a, errA := cached.Query(sql)
		b, errB := plain.Query(sql)
		if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
			t.Fatalf("%s: cached err %v, uncached err %v", sql, errA, errB)
		}
		if errA == nil && a != nil {
			tablesIdentical(t, sql, a, b, "cached", "uncached")
		}
		return a, errA
	}
	mustRun := func(sql string) *Table {
		t.Helper()
		res, err := both(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	mustRun(`CREATE TABLE t (x DOUBLE, k TEXT)`)
	mustRun(`INSERT INTO t VALUES (2.5, 'b'), (1.5, 'a')`)
	sel := `SELECT x FROM t ORDER BY x`
	gone := `SELECT k FROM t`
	mustRun(gone)
	if got := mustRun(sel).Schema()[0].Type; got != Float64 {
		t.Fatalf("before DDL: x is %v, want Float64", got)
	}
	before := pc.Stats()

	mustRun(`DROP TABLE t`)
	mustRun(`CREATE TABLE t (x TEXT)`)
	mustRun(`INSERT INTO t VALUES ('b'), ('a')`)
	res := mustRun(sel)
	if got := res.Schema()[0].Type; got != String {
		t.Fatalf("after DDL: x is %v, want String", got)
	}
	if got := res.Col(0).StringAt(0); got != "a" {
		t.Fatalf("after DDL: first x = %q, want a", got)
	}
	if _, err := both(gone); err == nil || !strings.Contains(err.Error(), "unknown column") {
		t.Fatalf("dropped column: err = %v, want unknown column", err)
	}
	if s := pc.Stats(); s.Misses != before.Misses || s.Hits != before.Hits+2 {
		t.Fatalf("after DDL: %+v, want both texts to hit (before %+v)", s, before)
	}
}

// TestPlanCacheMergeMemoPerPartTable: two merge views named v over parts
// whose tables have different names share one entry for the same text,
// and each ships SQL naming its own part table: the memo is reused only
// under the part-table name it was derived for.
func TestPlanCacheMergeMemoPerPartTable(t *testing.T) {
	pc := NewPlanCache(8)
	sql := `SELECT sum(x) AS s FROM v`
	view := func(table string) *DB {
		part := NewDB()
		tab := NewTable(Schema{{"x", Float64}})
		if err := tab.AppendRow(1.0); err != nil {
			t.Fatal(err)
		}
		part.RegisterTable(table, tab)
		db := NewDB(WithPlanCache(pc))
		db.RegisterMerge("v", &MergeTable{TableName: table, Parts: []Part{&LocalPart{Name: "p", DB: part}}})
		return db
	}
	dbs := map[string]*DB{"alpha": view("alpha"), "beta": view("beta")}
	for _, name := range []string{"alpha", "beta", "alpha"} {
		if _, err := dbs[name].Query(sql); err != nil {
			t.Fatal(err)
		}
		lines := planLines(t, dbs[name], `EXPLAIN ANALYZE `+sql)
		if last := lines[len(lines)-1]; last != "cache=hit" {
			t.Fatalf("%s: EXPLAIN ANALYZE trailer = %q, want cache=hit", name, last)
		}
		parts := 0
		for _, l := range lines {
			if !strings.Contains(l, "part p:") {
				continue
			}
			parts++
			if !strings.Contains(l, "FROM "+name) {
				t.Fatalf("%s: part line %q ships another table", name, l)
			}
		}
		if parts != 1 {
			t.Fatalf("%s: %d part lines in %q", name, parts, lines)
		}
	}
	if s := pc.Stats(); s.Entries != 1 {
		t.Fatalf("one text, two merge views: %+v, want 1 entry", s)
	}
}

// TestPlanCacheConcurrentSchemas: DBs whose t differ in column types run
// the same texts concurrently through one cache, and every result equals
// its DB's uncached reference (run under -race by make cachesmoke).
func TestPlanCacheConcurrentSchemas(t *testing.T) {
	pc := NewPlanCache(8)
	sqls := []string{
		`SELECT x, count(*) AS n FROM t GROUP BY x ORDER BY x`,
		`SELECT x FROM t WHERE k > 1 ORDER BY k DESC LIMIT 3`,
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(sqls)*8)
	for i, typ := range []string{"DOUBLE", "TEXT", "INT", "DOUBLE"} {
		cached, plain := NewDB(WithPlanCache(pc)), NewDB(WithPlanCache(nil))
		for _, db := range []*DB{cached, plain} {
			if _, err := db.Query(`CREATE TABLE t (x ` + typ + `, k INT)`); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 20; r++ {
				v := fmt.Sprint((r + i) % 5)
				if typ == "TEXT" {
					v = "'v" + v + "'"
				}
				if _, err := db.Query(fmt.Sprintf(`INSERT INTO t VALUES (%s, %d)`, v, r)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, sql := range sqls {
			want, err := plain.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 8; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, err := cached.Query(sql)
					if err == nil {
						err = tableDiff(sql+" ("+typ+")", got, want, "cached", "uncached")
					}
					if err != nil {
						errs <- err
					}
				}()
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s := pc.Stats(); s.Entries != len(sqls) {
		t.Fatalf("stats %+v, want one entry per text", s)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	pc := NewPlanCache(2)
	db := planCacheDB(t, pc)
	for _, sql := range []string{
		`SELECT count(*) AS n FROM t`,
		`SELECT avg(x) AS m FROM t`,
		`SELECT max(x) AS hi FROM t`,
	} {
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	if s := pc.Stats(); s.Entries > 2 {
		t.Fatalf("capacity 2 cache holds %d entries", s.Entries)
	}
	// The oldest statement was evicted: running it again is a miss.
	before := pc.Stats().Misses
	if _, err := db.Query(`SELECT count(*) AS n FROM t`); err != nil {
		t.Fatal(err)
	}
	if got := pc.Stats().Misses; got != before+1 {
		t.Fatalf("evicted statement should miss, misses %d -> %d", before, got)
	}
}

func TestPlanCacheQueryStatsFlag(t *testing.T) {
	pc := NewPlanCache(8)
	db := planCacheDB(t, pc)
	sql := `SELECT k, count(*) AS n FROM t GROUP BY k`

	_, qs, err := db.QueryWithStats(sql)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Cache != "" {
		t.Fatal("first execution must not report a cache hit")
	}
	_, qs, err = db.QueryWithStats(sql)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Cache != obs.CachePlan {
		t.Fatal("repeat execution should report CacheHit")
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	db := NewDB(WithPlanCache(nil))
	tab := NewTable(Schema{{Name: "x", Type: Float64}})
	if err := tab.AppendRow(1.5); err != nil {
		t.Fatal(err)
	}
	db.RegisterTable("t", tab)
	for i := 0; i < 2; i++ {
		res, err := db.Query(`SELECT sum(x) AS s FROM t`)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 1 {
			t.Fatalf("rows = %d", res.NumRows())
		}
	}
}

func TestExplainAnalyzeCacheLine(t *testing.T) {
	pc := NewPlanCache(8)
	db := planCacheDB(t, pc)
	sql := `SELECT k, avg(x) AS m FROM t GROUP BY k`

	lastLine := func() string {
		res, err := db.Query(`EXPLAIN ANALYZE ` + sql)
		if err != nil {
			t.Fatal(err)
		}
		return res.Col(0).StringAt(res.NumRows() - 1)
	}
	if got := lastLine(); got != "cache=miss" {
		t.Fatalf("uncached EXPLAIN ANALYZE trailer = %q, want cache=miss", got)
	}
	// Plain execution populates the cache; ANALYZE then reports the hit
	// without inserting anything itself.
	if _, err := db.Query(sql); err != nil {
		t.Fatal(err)
	}
	if got := lastLine(); got != "cache=hit" {
		t.Fatalf("cached EXPLAIN ANALYZE trailer = %q, want cache=hit", got)
	}
}

func TestPlanCacheResultsUnchanged(t *testing.T) {
	// The same statements must produce identical tables with the cache on
	// and off — the cached statement is shared read-only and execution
	// must not depend on memoized planning state.
	cached := planCacheDB(t, NewPlanCache(8))
	plain := planCacheDB(t, nil)
	for _, sql := range []string{
		`SELECT k, avg(x) AS m, count(*) AS n FROM t GROUP BY k ORDER BY k`,
		`SELECT x FROM t WHERE x > 30 ORDER BY x DESC LIMIT 5`,
		`SELECT a.k, sum(b.x) AS s FROM t a JOIN t b ON a.k = b.k GROUP BY a.k ORDER BY a.k`,
	} {
		for i := 0; i < 2; i++ { // second round runs cached
			a, err := cached.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			b, err := plain.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			tablesIdentical(t, sql, a, b, "cached", "uncached")
		}
	}
	if s := cached.plans.Stats(); s.Hits == 0 {
		t.Fatal("cached DB never hit its plan cache")
	}
}
