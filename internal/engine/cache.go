package engine

import (
	"container/list"
	"sync"
	"sync/atomic"

	"mip/internal/obs"
)

// Plan cache: an LRU over parsed SELECT statements, keyed on the SQL text
// exactly as written. A hit skips lexing and parsing outright, and the
// entry also memoizes the merge-table pushdown decomposition with its
// rendered per-part SQL, so repeated dashboard queries skip pushdown
// planning too. Join planning reruns per statement against its catalog
// version.
//
// A parse depends on syntax alone, so one entry serves every DB at every
// schema version: execution resolves each table and column against the
// catalog version it reads, and a DDL statement invalidates nothing. Two
// spellings of one statement are two entries. Cached statements are shared
// across concurrent queries and are never mutated after parse — execution
// copies the statement before rewriting any field.

var (
	engPlanCacheHits = obs.GetCounter("mip_engine_plan_cache_hits_total",
		"SELECT statements served from the plan cache (parse and planning skipped).")
	engPlanCacheMisses = obs.GetCounter("mip_engine_plan_cache_misses_total",
		"Cacheable SELECT statements that missed the plan cache and were parsed.")
)

// planEntry is one cached statement plus its memoized merge plan.
type planEntry struct {
	sql   string
	stmt  *SelectStmt
	merge atomic.Pointer[mergePlan] // the first merge plan derived for stmt
}

// mergePlan is a statement's merge pushdown decision for merge tables
// whose part-table name is table: the partial SQL per aggregate call and
// the per-part SQL when it decomposes, else the materialize SQL and its
// pushed projection.
type mergePlan struct {
	table    string
	pushOK   bool
	partials [][]string
	sql      string
}

// PlanCacheStats is the snapshot served by GET /cache.
type PlanCacheStats struct {
	Capacity int   `json:"capacity"`
	Entries  int   `json:"entries"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
}

// PlanCache is a thread-safe LRU of planEntry values keyed on SQL text.
// One cache may serve many DBs.
type PlanCache struct {
	hits   atomic.Int64
	misses atomic.Int64

	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recent; values are *planEntry
	entries map[string]*list.Element
}

// NewPlanCache returns a cache holding up to capacity statements; capacity
// <= 0 returns nil (caching disabled).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		return nil
	}
	return &PlanCache{cap: capacity, ll: list.New(), entries: make(map[string]*list.Element)}
}

// DefaultPlanCache is the process-wide 256-statement cache every DB uses
// unless WithPlanCache overrides it.
var DefaultPlanCache = NewPlanCache(256)

// Stats snapshots the cache counters; the zero value is returned for a nil
// (disabled) cache.
func (c *PlanCache) Stats() PlanCacheStats {
	if c == nil {
		return PlanCacheStats{}
	}
	c.mu.Lock()
	n := c.ll.Len()
	capacity := c.cap
	c.mu.Unlock()
	return PlanCacheStats{Capacity: capacity, Entries: n, Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// Flush drops every entry (counters are kept).
func (c *PlanCache) Flush() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.entries = make(map[string]*list.Element)
}

// get returns the entry under sql and marks it most recently used; a nil
// (disabled) cache holds nothing.
func (c *PlanCache) get(sql string) *planEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.entries[sql]
	if el == nil {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*planEntry)
}

// put inserts e under its text. If another goroutine inserted the same text
// first, that winner is returned so concurrent misses converge on one
// entry.
func (c *PlanCache) put(e *planEntry) *planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.entries[e.sql]; el != nil {
		c.ll.MoveToFront(el)
		return el.Value.(*planEntry)
	}
	c.entries[e.sql] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		old := c.ll.Back()
		c.ll.Remove(old)
		delete(c.entries, old.Value.(*planEntry).sql)
	}
	return e
}

// parseCached resolves sql to a statement through the plan cache: a hit
// skips the parser entirely and reports hit = true. Only plain SELECTs are
// cached; EXPLAIN, DDL and DML always parse.
func (db *DB) parseCached(sql string) (Statement, *planEntry, bool, error) {
	c := db.plans
	if e := c.get(sql); e != nil {
		c.hits.Add(1)
		engPlanCacheHits.Inc()
		return e.stmt, e, true, nil
	}
	st, err := Parse(sql)
	if err != nil || c == nil {
		return st, nil, false, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return st, nil, false, nil
	}
	c.misses.Add(1)
	engPlanCacheMisses.Inc()
	e := c.put(&planEntry{sql: sql, stmt: sel})
	return e.stmt, e, false, nil
}
