package engine

import (
	"container/list"
	"strconv"
	"sync"
	"sync/atomic"

	"mip/internal/obs"
)

// Plan cache: an LRU over parsed-and-planned SELECT statements, keyed on
// SQL text. A hit skips lexing and parsing outright, and the entry also
// memoizes the merge-table pushdown decomposition with its rendered
// per-part SQL, so repeated dashboard queries skip pushdown planning too.
// Join planning reruns per statement against its catalog version.
//
// Two texts that parse to the same tree share one entry: a raw-text lookup
// that misses falls back to the canonical rendering (RenderSelect), and the
// raw spelling is then registered as an alias of the canonical entry.
//
// Keys embed the owning DB's identity and schema version, so a schema
// change (CREATE/DROP/RegisterTable/RegisterMerge) makes every older entry
// unreachable; the LRU ages the garbage out. Cached statements are shared
// across concurrent queries and are never mutated after parse — execution
// copies the statement before rewriting any field.

var (
	engPlanCacheHits = obs.GetCounter("mip_engine_plan_cache_hits_total",
		"SELECT statements served from the plan cache (parse and planning skipped).")
	engPlanCacheMisses = obs.GetCounter("mip_engine_plan_cache_misses_total",
		"Cacheable SELECT statements that missed the plan cache and were parsed.")
)

// maxAliasKeys bounds how many raw spellings one entry may be reachable
// under, so a client minting whitespace variants cannot grow the key map
// without bound (variants past the cap still hit via the canonical key).
const maxAliasKeys = 8

// planEntry is one cached statement plus its memoized planning products.
type planEntry struct {
	stmt  *SelectStmt
	canon string   // canonical rendering (also the primary key suffix)
	keys  []string // every cache key mapping to this entry, for eviction

	// Merge-table pushdown decomposition, memoized on first execution.
	mergeOnce sync.Once
	pushOK    bool
	specs     []partialSpec
	partSQL   string
	partCols  [][]string
	matSQL    string
	matCols   []string
}

// mergePlan memoizes the merge pushdown decision for st against m: whether
// the statement decomposes, its partial specs, and the rendered per-part
// SQL (partial or materialize form). Keys carry the schema version of the
// catalog a statement reads, so m is stable for the entry's lifetime.
func (e *planEntry) mergePlan(m *MergeTable, st *SelectStmt) *planEntry {
	e.mergeOnce.Do(func() {
		e.specs, e.pushOK = m.decompose(st)
		if e.pushOK {
			e.partSQL, e.partCols = m.partialSQL(st, e.specs)
		} else {
			e.matSQL, e.matCols = m.materializeSQL(st)
		}
	})
	return e
}

// PlanCacheStats is the snapshot served by GET /cache.
type PlanCacheStats struct {
	Capacity int   `json:"capacity"`
	Entries  int   `json:"entries"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
}

// PlanCache is a thread-safe LRU of planEntry values. One cache may serve
// many DBs: keys embed each DB's identity and schema version.
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

// get returns the entry under key and marks it most recently used.
func (c *PlanCache) get(key string) *planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.entries[key]
	if el == nil {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*planEntry)
}

// put inserts e under its canonical key plus the raw alias (when it
// differs). If another goroutine inserted the same canonical key first,
// that winner is returned so concurrent misses converge on one entry.
func (c *PlanCache) put(canonKey, aliasKey string, e *planEntry) *planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.entries[canonKey]; el != nil {
		c.ll.MoveToFront(el)
		won := el.Value.(*planEntry)
		c.aliasLocked(aliasKey, el, won)
		return won
	}
	e.keys = append(e.keys, canonKey)
	el := c.ll.PushFront(e)
	c.entries[canonKey] = el
	c.aliasLocked(aliasKey, el, e)
	for c.ll.Len() > c.cap {
		old := c.ll.Back()
		c.ll.Remove(old)
		for _, k := range old.Value.(*planEntry).keys {
			delete(c.entries, k)
		}
	}
	return e
}

// addAlias registers a raw spelling for an existing entry.
func (c *PlanCache) addAlias(aliasKey string, e *planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.entries[e.keys[0]]; el != nil && el.Value.(*planEntry) == e {
		c.aliasLocked(aliasKey, el, e)
	}
}

func (c *PlanCache) aliasLocked(aliasKey string, el *list.Element, e *planEntry) {
	if aliasKey == "" || len(e.keys) >= maxAliasKeys {
		return
	}
	if _, ok := c.entries[aliasKey]; ok {
		return
	}
	e.keys = append(e.keys, aliasKey)
	c.entries[aliasKey] = el
}

// lookupSelect peeks the cache for an already-planned statement equal to
// sel without inserting on a miss, so EXPLAIN does not pollute the LRU.
func (db *DB) lookupSelect(cat *catalog, sel *SelectStmt) (*planEntry, bool) {
	c := db.plans
	if c == nil {
		return nil, false
	}
	if e := c.get(db.cacheKey(cat, RenderSelect(sel))); e != nil {
		return e, true
	}
	return nil, false
}

// dbSeq hands out process-unique DB identities for cache keys.
var dbSeq atomic.Uint64

// NewPlanCacheIdentity mints a fresh identity token from the DB id
// sequence. A caller that builds a series of short-lived DBs following an
// identical DDL sequence (the federation master's transient merge
// databases) passes the token to WithPlanCacheIdentity on each of them so
// their plan-cache keys coincide: repeated statements hit the cache
// instead of each DB inserting keys no later DB can ever reach.
func NewPlanCacheIdentity() uint64 { return dbSeq.Add(1) }

// cacheKey scopes a SQL text to one DB at the schema version of cat.
func (db *DB) cacheKey(cat *catalog, sql string) string {
	return strconv.FormatUint(db.id, 36) + ":" + strconv.FormatUint(cat.schema, 36) + "\x00" + sql
}

// parseCached resolves sql to a statement through the plan cache: a raw- or
// canonical-text hit skips the parser entirely and reports hit = true. Only
// plain SELECTs are cached; EXPLAIN, DDL and DML always parse.
func (db *DB) parseCached(cat *catalog, sql string) (Statement, *planEntry, bool, error) {
	c := db.plans
	if c == nil {
		st, err := Parse(sql)
		return st, nil, false, err
	}
	rawKey := db.cacheKey(cat, sql)
	if e := c.get(rawKey); e != nil {
		c.hits.Add(1)
		engPlanCacheHits.Inc()
		return e.stmt, e, true, nil
	}
	st, err := Parse(sql)
	if err != nil {
		return nil, nil, false, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return st, nil, false, nil
	}
	c.misses.Add(1)
	engPlanCacheMisses.Inc()
	canon := RenderSelect(sel)
	canonKey := db.cacheKey(cat, canon)
	aliasKey := rawKey
	if aliasKey == canonKey {
		aliasKey = ""
	}
	if e := c.get(canonKey); e != nil {
		// A different spelling of an already-cached statement: reuse its
		// entry (keeping the memoized plan) and learn the new spelling.
		c.addAlias(aliasKey, e)
		return e.stmt, e, false, nil
	}
	e := c.put(canonKey, aliasKey, &planEntry{stmt: sel, canon: canon})
	return e.stmt, e, false, nil
}
