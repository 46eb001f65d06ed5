package federation

import (
	"container/list"
	"errors"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"mip/internal/engine"
	"mip/internal/obs"
)

// Result cache: the master-side cache of complete federated query results,
// keyed on (SQL text as written, tenant, per-worker dataset versions). Because
// every worker's dataset versions are baked into the key, invalidation is
// strict and automatic: any data change on a relevant worker changes the
// key, the old entry becomes unreachable, and the LRU ages it out. A
// worker restart changes its boot id, so versions from a previous process
// never validate a stale entry.
//
// Entries are byte-budgeted: each cached table's payload is charged to the
// cache's MemAccountant and the least recently used entries are evicted
// when the budget is exceeded. Concurrent identical misses collapse
// singleflight-style — the first caller executes, the rest wait and share
// its result — so a dashboard herd runs the query once. Only a successful
// result is shared: a leader's error (its own deadline or cancellation, a
// flush aborting the flight) sends the waiters back to execute for
// themselves rather than failing unrelated callers.
//
// Cached tables are shared by reference across callers and must be treated
// as immutable, which all read paths (API encoding, merge rendering) do.

var (
	fedResultCacheHits = obs.GetCounter("mip_result_cache_hits_total",
		"Federated queries served from the master's result cache.")
	fedResultCacheMisses = obs.GetCounter("mip_result_cache_misses_total",
		"Cacheable federated queries that missed the result cache.")
	fedResultCacheEvictions = obs.GetCounter("mip_result_cache_evictions_total",
		"Result-cache entries evicted under the byte budget.")
	fedResultCacheBytes = obs.GetGauge("mip_result_cache_bytes",
		"Bytes of result payload currently held by the master's result cache.")
)

// ResultCacheStats is the snapshot served by GET /cache.
type ResultCacheStats struct {
	BudgetBytes int64 `json:"budget_bytes"`
	Bytes       int64 `json:"bytes"`
	Entries     int   `json:"entries"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
}

// resultEntry is one cached federated result.
type resultEntry struct {
	key   string
	table *engine.Table
	bytes int64
}

// errFlightAborted is published to a flight's waiters when Flush drops the
// flight mid-execution; waiters fall back to executing for themselves.
var errFlightAborted = errors.New("federation: result cache flushed during execution")

// resultFlight is one in-progress execution that identical concurrent
// queries wait on instead of re-executing.
type resultFlight struct {
	done    chan struct{}
	closed  bool // outcome published, done closed; guarded by the cache mu
	table   *engine.Table
	dropped []string
	err     error
}

// ResultCache is a thread-safe, byte-budgeted LRU of federated query
// results with singleflight collapsing of identical misses.
type ResultCache struct {
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	budget int64
	acct   engine.MemAccountant // zero value: accounting without a hard limit

	mu       sync.Mutex
	ll       *list.List // front = most recent; values are *resultEntry
	entries  map[string]*list.Element
	inflight map[string]*resultFlight
}

// NewResultCache returns a cache evicting LRU past the given byte budget;
// budget <= 0 returns nil (caching disabled).
func NewResultCache(budget int64) *ResultCache {
	if budget <= 0 {
		return nil
	}
	return &ResultCache{
		budget:   budget,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*resultFlight),
	}
}

// Stats snapshots the cache counters; the zero value is returned for a nil
// (disabled) cache.
func (c *ResultCache) Stats() ResultCacheStats {
	if c == nil {
		return ResultCacheStats{}
	}
	c.mu.Lock()
	n := c.ll.Len()
	c.mu.Unlock()
	return ResultCacheStats{
		BudgetBytes: c.budget,
		Bytes:       c.acct.Live(),
		Entries:     n,
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
	}
}

// Flush drops every entry and aborts every in-flight singleflight
// execution (counters are kept). Aborted flights release their waiters
// with errFlightAborted — the operational escape hatch if a leader ever
// wedges — and the waiters fall back to executing for themselves; the
// leader's own caller still receives the leader's real outcome.
func (c *ResultCache) Flush() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*resultEntry)
		c.acct.Release(e.bytes)
	}
	c.ll.Init()
	c.entries = make(map[string]*list.Element)
	for key, f := range c.inflight {
		f.closed = true
		f.err = errFlightAborted
		close(f.done)
		delete(c.inflight, key)
	}
	fedResultCacheBytes.Set(float64(c.acct.Live()))
}

// lookup peeks for a cached result without joining a flight. A find counts
// as a hit; an absence is not counted as a miss, because the caller
// (EXPLAIN ANALYZE) then executes outside the cache. Used by ExplainAs.
func (c *ResultCache) lookup(key string) (*engine.Table, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.entries[key]
	if el == nil {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	fedResultCacheHits.Inc()
	return el.Value.(*resultEntry).table, true
}

// begin resolves a key: a cached table (hit), an in-progress flight to
// wait on (leader = false), or a freshly registered flight this caller
// must execute and finish (leader = true).
func (c *ResultCache) begin(key string) (t *engine.Table, f *resultFlight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.entries[key]; el != nil {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		fedResultCacheHits.Inc()
		return el.Value.(*resultEntry).table, nil, false
	}
	c.misses.Add(1)
	fedResultCacheMisses.Inc()
	if f := c.inflight[key]; f != nil {
		return nil, f, false
	}
	f = &resultFlight{done: make(chan struct{})}
	c.inflight[key] = f
	return nil, f, true
}

// finish publishes a leader's outcome: waiters are released, and a
// complete (non-degraded, error-free) result is inserted under the key.
// A flight already aborted by Flush is left as published — the leader's
// late outcome is simply not cached (its own caller still gets it via the
// leader's return values).
func (c *ResultCache) finish(key string, f *resultFlight, t *engine.Table, dropped []string, err error) {
	c.mu.Lock()
	if f.closed {
		c.mu.Unlock()
		return
	}
	f.closed = true
	f.table, f.dropped, f.err = t, dropped, err
	if c.inflight[key] == f {
		delete(c.inflight, key)
	}
	if err == nil && len(dropped) == 0 && t != nil {
		c.putLocked(key, t)
	}
	c.mu.Unlock()
	close(f.done)
}

func (c *ResultCache) putLocked(key string, t *engine.Table) {
	if c.entries[key] != nil {
		return
	}
	e := &resultEntry{key: key, table: t, bytes: t.ByteSize()}
	c.entries[key] = c.ll.PushFront(e)
	c.acct.Charge(e.bytes)
	for c.acct.Live() > c.budget && c.ll.Len() > 1 {
		old := c.ll.Back()
		oe := old.Value.(*resultEntry)
		c.ll.Remove(old)
		delete(c.entries, oe.key)
		c.acct.Release(oe.bytes)
		c.evictions.Add(1)
		fedResultCacheEvictions.Inc()
	}
	// A single result larger than the whole budget is not worth keeping.
	if c.acct.Live() > c.budget {
		c.ll.Remove(c.entries[key])
		delete(c.entries, key)
		c.acct.Release(e.bytes)
		c.evictions.Add(1)
		fedResultCacheEvictions.Inc()
	}
	fedResultCacheBytes.Set(float64(c.acct.Live()))
}

// resultKey derives the cache key for sql, as written, attributed to
// tenant over the given workers, or ok = false when any worker cannot vouch
// for its data versions (a failed probe) — those queries bypass the cache
// entirely rather than risk a stale serve. The workers are probed
// concurrently, so a lookup costs one stamp round trip, not one per worker.
//
// The per-worker fragment enumerates the versions of exactly the datasets
// the query touches (all of the worker's datasets when the request names
// none), so data changes in unrelated datasets do not invalidate the entry.
func (m *Master) resultKey(tenant string, datasets []string, sql string, ws []WorkerClient) (string, bool) {
	infos := make([]DatasetInfo, len(ws))
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i := 1; i < len(ws); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			infos[i], errs[i] = m.currentInfo(ws[i])
		}()
	}
	// The caller probes the first worker itself: one goroutine fewer per
	// lookup, which is measurable when every CPU is busy. Both callers
	// pass at least one worker.
	infos[0], errs[0] = m.currentInfo(ws[0])
	wg.Wait()
	if errors.Join(errs...) != nil {
		return "", false
	}
	want := map[string]bool{}
	for _, d := range datasets {
		want[d] = true
	}
	frags := make([]string, 0, len(ws))
	for i, info := range infos {
		var b strings.Builder
		b.WriteString(ws[i].ID())
		b.WriteString("@")
		b.WriteString(info.Boot)
		b.WriteString("{")
		codes := make([]string, 0, len(info.Versions))
		for ds := range info.Versions {
			if len(want) == 0 || want[ds] {
				codes = append(codes, ds)
			}
		}
		sort.Strings(codes)
		for _, ds := range codes {
			b.WriteString(ds)
			b.WriteString("=")
			b.WriteString(strconv.FormatUint(info.Versions[ds], 10))
			b.WriteString(",")
		}
		b.WriteString("}")
		frags = append(frags, b.String())
	}
	sort.Strings(frags)
	return tenant + "\x00" + strings.Join(frags, "|") + "\x00" + sql, true
}

// currentInfo returns the worker's snapshot, revalidated with the cheap
// stamp probe and re-fetched only when the stamp moved. A re-fetched
// snapshot replaces the worker's entry in m.infos, so availability sees it
// too; a worker without an entry (its last scan failed or its circuit is
// open) is readmitted only by RefreshAvailability or ProbeNow, which feed
// its breaker. A failed probe only bypasses the cache: it never drops the
// worker from availability.
func (m *Master) currentInfo(w WorkerClient) (DatasetInfo, error) {
	probe, err := w.DataStamp()
	if err != nil {
		return DatasetInfo{}, err
	}
	m.mu.Lock()
	info, known := m.infos[w.ID()]
	m.mu.Unlock()
	if known && info.Stamp == probe {
		return info, nil
	}
	if info, err = w.DatasetInfo(); err != nil {
		return DatasetInfo{}, err
	}
	m.mu.Lock()
	if _, known := m.infos[w.ID()]; known {
		m.infos[w.ID()] = info
	}
	m.mu.Unlock()
	return info, nil
}
