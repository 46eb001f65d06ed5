package federation

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mip/internal/catalogue"
	"mip/internal/engine"
	"mip/internal/etl"
	"mip/internal/obs"
)

// buildCachedFed builds a 2-worker edsd federation with the master's
// result cache enabled, returning the worker DBs for data mutations.
func buildCachedFed(t *testing.T, budget int64) (*Master, []*engine.DB) {
	t.Helper()
	var clients []WorkerClient
	var dbs []*engine.DB
	for i := 0; i < 2; i++ {
		db := newWorkerDB(t, "edsd", 40+10*i, float64(i))
		dbs = append(dbs, db)
		clients = append(clients, NewWorker(fmt.Sprintf("cw%d", i), db))
	}
	m, err := NewMaster(clients, nil, Security{}, WithResultCacheBytes(budget))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m, dbs
}

func TestResultCacheRepeatHit(t *testing.T) {
	m, _ := buildCachedFed(t, 1<<20)
	sql := `SELECT avg(age) AS m, count(*) AS n FROM data`

	t1, err := m.MergeQuery([]string{"edsd"}, sql)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := m.MergeQuery([]string{"edsd"}, sql)
	if err != nil {
		t.Fatal(err)
	}
	if t2 != t1 {
		t.Fatal("repeat should serve the cached table by reference")
	}
	s := m.ResultCacheStats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}
	if s.Bytes <= 0 || s.BudgetBytes != 1<<20 {
		t.Fatalf("stats bytes = %d budget = %d", s.Bytes, s.BudgetBytes)
	}
}

func TestResultCacheInvalidationOnAppend(t *testing.T) {
	m, dbs := buildCachedFed(t, 1<<20)
	sql := `SELECT count(*) AS n FROM data`

	t1, err := m.MergeQuery([]string{"edsd"}, sql)
	if err != nil {
		t.Fatal(err)
	}
	before := t1.Col(0).CastFloat64().Float64s()[0]
	if _, err := m.MergeQuery([]string{"edsd"}, sql); err != nil {
		t.Fatal(err)
	}
	if s := m.ResultCacheStats(); s.Hits != 1 {
		t.Fatalf("warmup should hit once, stats = %+v", s)
	}

	// Appending a row on one worker bumps its dataset version: the old key
	// becomes unreachable and the repeat re-executes against fresh data.
	if _, err := dbs[0].Query(`INSERT INTO data VALUES ('edsd', 61, 25)`); err != nil {
		t.Fatal(err)
	}
	t3, err := m.MergeQuery([]string{"edsd"}, sql)
	if err != nil {
		t.Fatal(err)
	}
	after := t3.Col(0).CastFloat64().Float64s()[0]
	if after != before+1 {
		t.Fatalf("stale serve: count %v -> %v, want +1", before, after)
	}
	if s := m.ResultCacheStats(); s.Misses != 2 {
		t.Fatalf("post-append query should miss, stats = %+v", s)
	}
}

func TestResultCacheUnrelatedDatasetRetention(t *testing.T) {
	// One worker hosting two datasets: mutating the unrelated one must not
	// invalidate an entry keyed on the other.
	db := engine.NewDB()
	tab := engine.NewTable(engine.Schema{
		{Name: "dataset", Type: engine.String},
		{Name: "age", Type: engine.Float64},
		{Name: "mmse", Type: engine.Float64},
	})
	for i := 0; i < 30; i++ {
		ds := "edsd"
		if i%2 == 0 {
			ds = "ppmi"
		}
		if err := tab.AppendRow(ds, 60+float64(i), float64(20+i%10)); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterTable(DataTable, tab)
	m, err := NewMaster([]WorkerClient{NewWorker("multi", db)}, nil, Security{}, WithResultCacheBytes(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	sql := `SELECT count(*) AS n FROM data WHERE dataset = 'edsd'`
	for i := 0; i < 2; i++ {
		if _, err := m.MergeQuery([]string{"edsd"}, sql); err != nil {
			t.Fatal(err)
		}
	}
	if s := m.ResultCacheStats(); s.Hits != 1 {
		t.Fatalf("warmup stats = %+v", s)
	}
	// Touch only ppmi: the edsd entry's key is untouched, so this stays a hit.
	if _, err := db.Query(`INSERT INTO data VALUES ('ppmi', 55, 29)`); err != nil {
		t.Fatal(err)
	}
	if _, err := m.MergeQuery([]string{"edsd"}, sql); err != nil {
		t.Fatal(err)
	}
	if s := m.ResultCacheStats(); s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("unrelated-dataset append must not invalidate: stats = %+v", s)
	}
}

func TestResultCacheWorkerRestartInvalidates(t *testing.T) {
	db := newWorkerDB(t, "edsd", 30, 0)
	var handler atomic.Value
	handler.Store((&WorkerServer{Worker: NewWorker("rw0", db), AllowRawQuery: true}).Handler())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer srv.Close()

	client := NewHTTPWorkerClient("rw0", srv.URL)
	m, err := NewMaster([]WorkerClient{client}, nil, Security{}, WithResultCacheBytes(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	sql := `SELECT avg(mmse) AS m FROM data`
	for i := 0; i < 2; i++ {
		if _, err := m.MergeQuery([]string{"edsd"}, sql); err != nil {
			t.Fatal(err)
		}
	}
	if s := m.ResultCacheStats(); s.Hits != 1 {
		t.Fatalf("warmup stats = %+v", s)
	}

	// "Restart" the worker process: same data, fresh boot id. Versions from
	// the previous incarnation must never validate an entry.
	handler.Store((&WorkerServer{Worker: NewWorker("rw0", db), AllowRawQuery: true}).Handler())
	if _, err := m.MergeQuery([]string{"edsd"}, sql); err != nil {
		t.Fatal(err)
	}
	if s := m.ResultCacheStats(); s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("post-restart query must miss: stats = %+v", s)
	}
}

// countingClient wraps an in-process worker, counting part-query executions
// and slowing them down so concurrent misses genuinely overlap.
type countingClient struct {
	*Worker
	queries atomic.Int64
	delay   time.Duration
}

func (c *countingClient) QueryCtx(ctx context.Context, sql string) (*engine.Table, error) {
	c.queries.Add(1)
	time.Sleep(c.delay)
	return c.Worker.QueryCtx(ctx, sql)
}

func TestResultCacheSingleflight(t *testing.T) {
	var clients []WorkerClient
	var counters []*countingClient
	for i := 0; i < 2; i++ {
		cc := &countingClient{Worker: NewWorker(fmt.Sprintf("sf%d", i), newWorkerDB(t, "edsd", 30, float64(i))), delay: 50 * time.Millisecond}
		counters = append(counters, cc)
		clients = append(clients, cc)
	}
	m, err := NewMaster(clients, nil, Security{}, WithResultCacheBytes(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	const goroutines = 8
	sql := `SELECT avg(age) AS m, count(*) AS n FROM data`
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	tables := make([]*engine.Table, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tables[g], errs[g] = m.MergeQuery([]string{"edsd"}, sql)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
		if tables[g] == nil || tables[g].NumRows() != 1 {
			t.Fatalf("goroutine %d: bad table", g)
		}
	}
	// The herd collapsed into one execution: each worker ran its part once.
	for i, cc := range counters {
		if n := cc.queries.Load(); n != 1 {
			t.Fatalf("worker %d executed %d part queries, want 1", i, n)
		}
	}
	if s := m.ResultCacheStats(); s.Hits+s.Misses != goroutines {
		t.Fatalf("stats = %+v, want hits+misses = %d", s, goroutines)
	}
}

func TestResultCacheHitMeteringAndAudit(t *testing.T) {
	m, _ := buildCachedFed(t, 1<<20)
	tenant := "cache-meter-test"
	sql := `SELECT avg(age) AS m FROM data`

	if _, _, err := m.MergeQueryDegradedAs(tenant, []string{"edsd"}, sql); err != nil {
		t.Fatal(err)
	}
	cold, ok := obs.DefaultTenants.Usage(tenant)
	if !ok {
		t.Fatal("tenant account missing after cold query")
	}
	for i := 0; i < 2; i++ {
		if _, _, err := m.MergeQueryDegradedAs(tenant, []string{"edsd"}, sql); err != nil {
			t.Fatal(err)
		}
	}
	u, _ := obs.DefaultTenants.Usage(tenant)
	// Each cache hit must keep metering the tenant exactly like an executed
	// statement would — serving from cache never goes dark on accounting.
	if got := u.Queries - cold.Queries; got != 2 {
		t.Fatalf("two cache hits metered %d queries, want 2", got)
	}
	var cached int
	for _, r := range obs.DefaultAudit.Entries(obs.AuditFilter{Tenant: tenant}) {
		if r.Verdict == "cached" {
			cached++
			if r.SQLDigest != obs.SQLDigest(sql) || len(r.Workers) == 0 {
				t.Fatalf("cached audit record incomplete: %+v", r)
			}
		}
	}
	if cached != 2 {
		t.Fatalf("audit has %d cached records, want 2", cached)
	}
}

func TestResultCacheFlush(t *testing.T) {
	m, _ := buildCachedFed(t, 1<<20)
	sql := `SELECT count(*) AS n FROM data`
	for i := 0; i < 2; i++ {
		if _, err := m.MergeQuery([]string{"edsd"}, sql); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.FlushResultCache(); n != 1 {
		t.Fatalf("flushed %d entries, want 1", n)
	}
	s := m.ResultCacheStats()
	if s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("post-flush stats = %+v", s)
	}
	if _, err := m.MergeQuery([]string{"edsd"}, sql); err != nil {
		t.Fatal(err)
	}
	if s = m.ResultCacheStats(); s.Misses != 2 {
		t.Fatalf("post-flush query should miss, stats = %+v", s)
	}
}

func TestResultCacheEviction(t *testing.T) {
	m, _ := buildCachedFed(t, 48) // roughly one single-row result at a time
	for i := 0; i < 4; i++ {
		sql := fmt.Sprintf(`SELECT avg(age) AS m, count(*) AS n FROM data WHERE age > %d`, 50+i)
		if _, err := m.MergeQuery([]string{"edsd"}, sql); err != nil {
			t.Fatal(err)
		}
	}
	s := m.ResultCacheStats()
	if s.Evictions == 0 {
		t.Fatalf("tiny budget never evicted: stats = %+v", s)
	}
	if s.Bytes > 48 {
		t.Fatalf("cache exceeds budget: stats = %+v", s)
	}
}

func TestExplainAnalyzeCachedNode(t *testing.T) {
	m, _ := buildCachedFed(t, 1<<20)
	tenant := "explain-cache-test"
	sql := `SELECT avg(age) AS m, count(*) AS n FROM data`

	// Cold ANALYZE executes and reports the real operator tree.
	lines, err := m.ExplainAs(tenant, []string{"edsd"}, sql, true)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.Join(lines, "\n"), "cached") {
		t.Fatalf("cold ANALYZE should not report a cached node:\n%s", strings.Join(lines, "\n"))
	}
	if _, _, err := m.MergeQueryDegradedAs(tenant, []string{"edsd"}, sql); err != nil {
		t.Fatal(err)
	}
	lines, err = m.ExplainAs(tenant, []string{"edsd"}, sql, true)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "cached") || !strings.Contains(joined, "cache=hit") {
		t.Fatalf("warm ANALYZE should report the cached node and trailer:\n%s", joined)
	}
	if !strings.Contains(joined, "rows_out=1") {
		t.Fatalf("cached node should carry the stored result's real rows:\n%s", joined)
	}
}

// TestWorkerVersionsUnattributedReplaceNotMasked covers the attribution
// trap: one retention DELETE spanning two datasets (one data-version
// advance, two row-count changes) between the same two DatasetInfo calls as
// a same-count replace of a third dataset (RegisterTable, no count change).
// The replace must bump the third dataset's version — it must not hide
// behind the multi-dataset statement's count changes.
func TestWorkerVersionsUnattributedReplaceNotMasked(t *testing.T) {
	db := engine.NewDB()
	tab := engine.NewTable(engine.Schema{
		{Name: "dataset", Type: engine.String},
		{Name: "age", Type: engine.Float64},
		{Name: "mmse", Type: engine.Float64},
	})
	rows := []struct {
		ds  string
		age float64
	}{{"a", 10}, {"a", 40}, {"b", 20}, {"b", 45}, {"c", 50}, {"c", 55}}
	for _, r := range rows {
		if err := tab.AppendRow(r.ds, r.age, 25.0); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterTable(DataTable, tab)
	w := NewWorker("mask0", db)

	info1, err := w.DatasetInfo()
	if err != nil {
		t.Fatal(err)
	}
	v1 := info1.Versions["c"]
	if v1 == 0 {
		t.Fatalf("missing version for dataset c: %+v", info1)
	}

	// One statement touching rows in both a and b (c untouched)...
	if _, err := db.Query(`DELETE FROM data WHERE age < 30`); err != nil {
		t.Fatal(err)
	}
	// ...plus a loader replacing the rows of c with as many new ones.
	next := engine.NewTable(tab.Schema())
	for _, r := range rows[1:] {
		if r.ds == "b" && r.age < 30 {
			continue
		}
		if err := next.AppendRow(r.ds, r.age+1, 25.0); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterTable(DataTable, next)

	info2, err := w.DatasetInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info2.Versions["c"] <= v1 {
		t.Fatalf("in-place replace masked by multi-dataset statement: c version %d -> %d, want a bump",
			v1, info2.Versions["c"])
	}
}

// TestDatasetVersionsDeclared: a dataset's version moves exactly when a
// write adds or removes rows of it. An INSERT and a DELETE of one row of a
// leave every row count as it was, yet a must bump; b, which neither write
// touched, must keep its version.
func TestDatasetVersionsDeclared(t *testing.T) {
	db := engine.NewDB()
	tab := engine.NewTable(engine.Schema{
		{Name: "dataset", Type: engine.String},
		{Name: "age", Type: engine.Float64},
		{Name: "mmse", Type: engine.Float64},
	})
	for i, ds := range []string{"a", "b", "a", "b"} {
		if err := tab.AppendRow(ds, 60+float64(i), 25.0); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterTable(DataTable, tab)
	w := NewWorker("decl0", db)

	before, err := w.DatasetInfo()
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{`INSERT INTO data VALUES ('a', 99, 25)`, `DELETE FROM data WHERE age = 99`} {
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	after, err := w.DatasetInfo()
	if err != nil {
		t.Fatal(err)
	}
	if after.Stamp == before.Stamp {
		t.Fatalf("stamp %q did not move after two writes", after.Stamp)
	}
	if after.Versions["a"] <= before.Versions["a"] {
		t.Fatalf("a version %d -> %d, want a bump", before.Versions["a"], after.Versions["a"])
	}
	if after.Versions["b"] != before.Versions["b"] {
		t.Fatalf("b version %d -> %d, want it unchanged: no write touched b", before.Versions["b"], after.Versions["b"])
	}
	if strings.Join(after.Datasets, ",") != "a,b" {
		t.Fatalf("datasets = %v", after.Datasets)
	}
}

// TestResultCacheInvalidationOnLoad: an ETL load appending to a worker's
// data table is a write like an INSERT, so the worker's stamp and the
// loaded dataset's version move and a cached answer over it re-executes.
func TestResultCacheInvalidationOnLoad(t *testing.T) {
	db := engine.NewDB()
	load := func() {
		t.Helper()
		csv := "subjectageyears,minimentalstate\n70,24\n65,29\n80,15\n"
		m := etl.IdentityMapping("siteX", []string{"subjectageyears", "minimentalstate"})
		if _, err := etl.LoadCSV(strings.NewReader(csv), m, catalogue.Dementia(), db, DataTable); err != nil {
			t.Fatal(err)
		}
	}
	load()
	w := NewWorker("etl0", db)
	m, err := NewMaster([]WorkerClient{w}, nil, Security{}, WithResultCacheBytes(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	sql := `SELECT count(*) AS n FROM data`
	for i := 0; i < 2; i++ {
		if _, err := m.MergeQuery([]string{"siteX"}, sql); err != nil {
			t.Fatal(err)
		}
	}
	if s := m.ResultCacheStats(); s.Hits != 1 {
		t.Fatalf("warmup stats = %+v", s)
	}
	stamp, _ := w.DataStamp()
	info, _ := w.DatasetInfo()

	load()
	if stamp2, _ := w.DataStamp(); stamp2 == stamp {
		t.Fatal("stamp did not move after the load")
	}
	if info2, _ := w.DatasetInfo(); info2.Versions["siteX"] <= info.Versions["siteX"] {
		t.Fatalf("siteX version %d -> %d, want a bump", info.Versions["siteX"], info2.Versions["siteX"])
	}
	got, err := m.MergeQuery([]string{"siteX"}, sql)
	if err != nil {
		t.Fatal(err)
	}
	if n := got.Col(0).CastFloat64().Float64s()[0]; n != 6 {
		t.Fatalf("stale serve: count = %v after the second load, want 6", n)
	}
	if s := m.ResultCacheStats(); s.Misses != 2 {
		t.Fatalf("post-load query should miss, stats = %+v", s)
	}
}

// flakyClient fails its first part query — slowly, so the singleflight
// herd piles onto the leader's flight first — and succeeds afterwards.
type flakyClient struct {
	*Worker
	calls atomic.Int64
}

func (c *flakyClient) QueryCtx(ctx context.Context, sql string) (*engine.Table, error) {
	if c.calls.Add(1) == 1 {
		time.Sleep(100 * time.Millisecond)
		return nil, fmt.Errorf("injected: first execution fails")
	}
	return c.Worker.QueryCtx(ctx, sql)
}

func TestResultCacheWaiterFallbackOnLeaderError(t *testing.T) {
	fc := &flakyClient{Worker: NewWorker("fb0", newWorkerDB(t, "edsd", 30, 0))}
	m, err := NewMaster([]WorkerClient{fc}, nil, Security{}, WithResultCacheBytes(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	const goroutines = 6
	sql := `SELECT avg(age) AS m, count(*) AS n FROM data`
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	tables := make([]*engine.Table, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tables[g], errs[g] = m.MergeQuery([]string{"edsd"}, sql)
		}(g)
	}
	wg.Wait()
	// Exactly one caller — the leader whose execution failed — surfaces the
	// injected error. The waiters must not inherit the leader's failure:
	// they fall back to executing for themselves and succeed.
	fails := 0
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			fails++
			continue
		}
		if tables[g] == nil || tables[g].NumRows() != 1 {
			t.Fatalf("goroutine %d: bad fallback table", g)
		}
	}
	if fails != 1 {
		t.Fatalf("%d callers failed, want exactly the leader; errs = %v", fails, errs)
	}
	if n := fc.calls.Load(); n < 2 {
		t.Fatalf("waiters never fell back to executing: %d part queries", n)
	}
}

func TestResultCacheFlushAbortsInflight(t *testing.T) {
	c := NewResultCache(1 << 20)
	_, f, leader := c.begin("k")
	if !leader || f == nil {
		t.Fatal("first begin should lead")
	}
	_, f2, leader2 := c.begin("k")
	if leader2 || f2 != f {
		t.Fatal("second begin should join the leader's flight")
	}
	released := make(chan error, 1)
	go func() {
		<-f2.done
		released <- f2.err
	}()
	c.Flush()
	select {
	case err := <-released:
		if err == nil {
			t.Fatal("aborted waiter should observe an error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("flush did not release the in-flight waiter")
	}

	// The leader's late finish is a no-op: no double close, nothing
	// published into the flushed cache.
	tab := engine.NewTable(engine.Schema{{Name: "n", Type: engine.Float64}})
	if err := tab.AppendRow(1.0); err != nil {
		t.Fatal(err)
	}
	c.finish("k", f, tab, nil, nil)
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("aborted flight published an entry: %+v", s)
	}
	// The key is free again for a fresh flight that caches normally.
	_, f3, leader3 := c.begin("k")
	if !leader3 {
		t.Fatal("post-flush begin should lead a fresh flight")
	}
	c.finish("k", f3, tab, nil, nil)
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("fresh flight did not cache: %+v", s)
	}
}

// TestMergeQueryPlanCacheReuse: a master's transient merge DBs share the
// plan cache's entry for a statement's text, so a repeated federated
// statement hits it instead of every query parsing afresh.
func TestMergeQueryPlanCacheReuse(t *testing.T) {
	pc := engine.NewPlanCache(32)
	var clients []WorkerClient
	for i := 0; i < 2; i++ {
		clients = append(clients, NewWorker(fmt.Sprintf("pc%d", i), newWorkerDB(t, "edsd", 30, float64(i))))
	}
	m, err := NewMaster(clients, nil, Security{}, WithEngineOptions(engine.WithPlanCache(pc)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	sql := `SELECT avg(age) AS m, count(*) AS n FROM data`
	for i := 0; i < 3; i++ {
		if _, err := m.MergeQuery([]string{"edsd"}, sql); err != nil {
			t.Fatal(err)
		}
	}
	s := pc.Stats()
	if s.Entries != 1 {
		t.Fatalf("merge DBs should converge on one plan entry, stats = %+v", s)
	}
	if s.Hits < 2 || s.Misses != 1 {
		t.Fatalf("repeat federated statements should hit the plan cache, stats = %+v", s)
	}
}

func TestHTTPWorkerDatasetInfoWire(t *testing.T) {
	db := newWorkerDB(t, "edsd", 25, 0)
	w := NewWorker("wire0", db)
	srv := httptest.NewServer((&WorkerServer{Worker: w}).Handler())
	defer srv.Close()
	c := NewHTTPWorkerClient("wire0", srv.URL)

	info, err := c.DatasetInfo()
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Datasets) != 1 || info.Datasets[0] != "edsd" {
		t.Fatalf("datasets = %v", info.Datasets)
	}
	if info.Boot == "" || info.Versions["edsd"] == 0 {
		t.Fatalf("missing version metadata: %+v", info)
	}
	if !strings.HasPrefix(info.Stamp, info.Boot+":") {
		t.Fatalf("stamp %q not scoped to boot %q", info.Stamp, info.Boot)
	}
	stamp, err := c.DataStamp()
	if err != nil {
		t.Fatal(err)
	}
	if stamp != info.Stamp {
		t.Fatalf("stamp probe %q != info stamp %q", stamp, info.Stamp)
	}
	// Datasets() must still work against the extended JSON shape.
	ds, err := c.Datasets()
	if err != nil || len(ds) != 1 || ds[0] != "edsd" {
		t.Fatalf("Datasets() = %v, %v", ds, err)
	}

	// A data change moves the cheap stamp and bumps the dataset version.
	if _, err := db.Query(`INSERT INTO data VALUES ('edsd', 70, 22)`); err != nil {
		t.Fatal(err)
	}
	stamp2, err := c.DataStamp()
	if err != nil {
		t.Fatal(err)
	}
	if stamp2 == stamp {
		t.Fatal("stamp did not move after INSERT")
	}
	info2, err := c.DatasetInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info2.Versions["edsd"] <= info.Versions["edsd"] {
		t.Fatalf("edsd version %d -> %d, want a bump", info.Versions["edsd"], info2.Versions["edsd"])
	}
}

// stampBarrier releases a round of DataStamp probes only once all n of
// them have arrived; a probe still waiting after the timeout fails.
type stampBarrier struct {
	mu      sync.Mutex
	n       int
	waiting int
	release chan struct{}
}

func (b *stampBarrier) wait() error {
	b.mu.Lock()
	ch := b.release
	if b.waiting++; b.waiting == b.n {
		b.waiting = 0
		b.release = make(chan struct{})
		close(ch)
	}
	b.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-time.After(2 * time.Second):
		return fmt.Errorf("stamp barrier: %d probes never arrived together", b.n)
	}
}

// barrierWorker is a Worker whose stamp probe waits at a shared barrier.
type barrierWorker struct {
	*Worker
	b *stampBarrier
}

func (w barrierWorker) DataStamp() (string, error) {
	if err := w.b.wait(); err != nil {
		return "", err
	}
	return w.Worker.DataStamp()
}

// TestResultKeyProbesConcurrently: a result-cache lookup probes every
// worker's stamp at once. Each probe blocks until all W have arrived, so a
// master probing in turn times out, bypasses the cache and never hits.
func TestResultKeyProbesConcurrently(t *testing.T) {
	const w = 4
	b := &stampBarrier{n: w, release: make(chan struct{})}
	var clients []WorkerClient
	for i := 0; i < w; i++ {
		clients = append(clients, barrierWorker{NewWorker(fmt.Sprintf("bw%d", i), newWorkerDB(t, "edsd", 10+i, float64(i))), b})
	}
	m, err := NewMaster(clients, nil, Security{}, WithResultCacheBytes(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	sql := `SELECT count(*) AS n FROM data`
	for i := 0; i < 2; i++ {
		res, err := m.MergeQuery([]string{"edsd"}, sql)
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Col(0).CastFloat64().Float64s()[0]; n != 10+11+12+13 {
			t.Fatalf("count = %v, want 46", n)
		}
	}
	if s := m.ResultCacheStats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want the repeat served from the cache", s)
	}
}
