package engine

import (
	"fmt"
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

func TestPlanCacheHitsAndAliases(t *testing.T) {
	pc := NewPlanCache(8)
	db := planCacheDB(t, pc)
	sql := `SELECT k, avg(x) AS m FROM t GROUP BY k ORDER BY k`

	for i := 0; i < 3; i++ {
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	s := pc.Stats()
	if s.Misses != 1 || s.Hits != 2 {
		t.Fatalf("after 3 identical queries: hits=%d misses=%d, want 2/1", s.Hits, s.Misses)
	}

	// A different spelling of the same statement parses once (a miss) but
	// reuses the canonical entry; its own raw text then hits directly.
	spelled := `SELECT k,  avg( x ) AS m FROM t GROUP BY k ORDER BY k`
	if _, err := db.Query(spelled); err != nil {
		t.Fatal(err)
	}
	if s = pc.Stats(); s.Misses != 2 {
		t.Fatalf("respelled statement should miss once, misses=%d", s.Misses)
	}
	if _, err := db.Query(spelled); err != nil {
		t.Fatal(err)
	}
	if s = pc.Stats(); s.Hits != 3 || s.Misses != 2 {
		t.Fatalf("respelled repeat should hit: hits=%d misses=%d, want 3/2", s.Hits, s.Misses)
	}
}

func TestPlanCacheSchemaChangeInvalidates(t *testing.T) {
	pc := NewPlanCache(8)
	db := planCacheDB(t, pc)
	sql := `SELECT count(*) AS n FROM t`

	for i := 0; i < 2; i++ {
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	if s := pc.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("warmup: hits=%d misses=%d", s.Hits, s.Misses)
	}

	// Any schema change (here: registering a new table) bumps the DB's
	// schema version, making every older key unreachable.
	other := NewTable(Schema{{Name: "y", Type: Float64}})
	db.RegisterTable("other", other)
	if _, err := db.Query(sql); err != nil {
		t.Fatal(err)
	}
	if s := pc.Stats(); s.Misses != 2 {
		t.Fatalf("schema change should force a fresh plan, misses=%d want 2", s.Misses)
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
