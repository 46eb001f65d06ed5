package engine

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mip/internal/obs"
)

// DB is the engine's catalog: named base tables plus registered merge
// tables (the federation views). All methods are safe for concurrent use:
// statements read an immutable catalog version without locking, and
// writers serialise on wmu to publish the next one.
type DB struct {
	cat     atomic.Pointer[catalog]
	wmu     sync.Mutex
	queries atomic.Int64
	ec      atomic.Pointer[ExecContext]
	plans   *PlanCache
}

// catalog is one version of a DB's contents, never modified once
// published. A statement loads the current version once and resolves every
// relation it reads from it.
type catalog struct {
	ver    uint64 // data version: every publish advances it
	tables map[string]*relation
	merges map[string]*MergeTable
}

// relation is one version of a base table. Its payload arrays may have
// spare capacity, which only the writer appends into (see Table.extend).
// stamps maps each value of its dataset column to the value's row count and
// the catalog version that last added or removed rows of it.
type relation struct {
	t      *Table
	stamps map[string]dsStamp
}

type dsStamp struct {
	rows int
	ver  uint64
}

// QueryCount returns the number of statements executed so far (scans,
// DDL, DML alike); the worker-step tests use it to assert that a step runs
// exactly one statement.
func (db *DB) QueryCount() int64 { return db.queries.Load() }

// Option configures a DB at construction.
type Option func(*DB)

// WithParallelism sets the DB's execution parallelism degree: how many
// morsels its queries process concurrently (1 = serial). Values < 1 keep
// the default, runtime.NumCPU.
func WithParallelism(n int) Option {
	return func(db *DB) {
		if n >= 1 {
			cur := *db.ec.Load()
			cur.Parallelism = n
			db.ec.Store(&cur)
		}
	}
}

// WithMorselSize sets the row-range size queries are split into. The size
// is clamped to ≥ 64 and rounded up to a multiple of 64 so morsel-sliced
// validity bitmaps stay word-aligned. Mostly a testing knob: results are
// bit-identical across parallelism degrees at a FIXED morsel size, but a
// different morsel size changes float summation order.
func WithMorselSize(n int) Option {
	return func(db *DB) {
		cur := *db.ec.Load()
		cur.MorselSize = roundMorselSize(n)
		db.ec.Store(&cur)
	}
}

func roundMorselSize(n int) int {
	if n < 64 {
		n = 64
	}
	return (n + 63) / 64 * 64
}

// WithQueryDeadline caps every statement's wall time: a query running
// longer is cancelled through the governance path with verdict "deadline".
// Zero or negative keeps queries unbounded.
func WithQueryDeadline(d time.Duration) Option {
	return func(db *DB) {
		if d > 0 {
			cur := *db.ec.Load()
			cur.QueryDeadline = d
			db.ec.Store(&cur)
		}
	}
}

// WithQueryMemLimit caps a statement's accounted live bytes: a query whose
// operators charge more is cancelled with verdict "mem-limit". Zero or
// negative keeps queries unbounded.
func WithQueryMemLimit(n int64) Option {
	return func(db *DB) {
		if n > 0 {
			cur := *db.ec.Load()
			cur.QueryMemLimit = n
			db.ec.Store(&cur)
		}
	}
}

// WithSpillDir sets the base directory for spill run files. Combined with
// WithQueryMemLimit it changes the limit's meaning from a hard ceiling to
// a soft budget: hash join and hash aggregate partition their state and
// shed partitions to temp files past the budget instead of the statement
// being cancelled with ErrQueryMemLimit. Empty (the default) keeps the
// hard-ceiling behavior.
func WithSpillDir(dir string) Option {
	return func(db *DB) {
		cur := *db.ec.Load()
		cur.SpillDir = dir
		db.ec.Store(&cur)
	}
}

// WithAccounting toggles per-query governance (registry registration,
// cancellation contexts, memory accounting). It defaults to on; the
// benchmark harness measures the off path to pin the accounting overhead.
func WithAccounting(enabled bool) Option {
	return func(db *DB) {
		cur := *db.ec.Load()
		cur.NoAccounting = !enabled
		db.ec.Store(&cur)
	}
}

// WithJoinReorder toggles greedy join reordering (on by default). Off pins
// multi-way joins to their written order; the planner's equivalence tests
// compare the two paths for bit-identical results.
func WithJoinReorder(enabled bool) Option {
	return func(db *DB) {
		cur := *db.ec.Load()
		cur.NoJoinReorder = !enabled
		db.ec.Store(&cur)
	}
}

// WithPlanCache points the DB at an explicit plan cache (nil disables
// caching). The default is the process-wide DefaultPlanCache.
func WithPlanCache(pc *PlanCache) Option {
	return func(db *DB) { db.plans = pc }
}

// NewDB returns an empty database.
func NewDB(opts ...Option) *DB {
	db := &DB{plans: DefaultPlanCache}
	db.cat.Store(&catalog{tables: map[string]*relation{}, merges: map[string]*MergeTable{}})
	db.ec.Store(&ExecContext{Parallelism: runtime.NumCPU(), MorselSize: DefaultMorselSize})
	for _, o := range opts {
		o(db)
	}
	return db
}

// PlanCache returns the cache this DB resolves statements through (nil
// when disabled).
func (db *DB) PlanCache() *PlanCache { return db.plans }

// DataVersion is a monotonic counter covering every mutation of this DB's
// catalog or data: DDL, INSERT, DELETE and Append. Equal values mean no
// statement-visible change happened in between.
func (db *DB) DataVersion() uint64 { return db.cat.Load().ver }

// DatasetVersions reads one catalog version: its DataVersion and, for each
// value of the named table's "dataset" column that has rows, the version
// that last added or removed rows of it (RegisterTable restamps them all).
func (db *DB) DatasetVersions(table string) (uint64, map[string]uint64) {
	c := db.cat.Load()
	out := map[string]uint64{}
	if r := c.tables[strings.ToLower(table)]; r != nil {
		for ds, st := range r.stamps {
			out[ds] = st.ver
		}
	}
	return c.ver, out
}

// write derives the next catalog version with fn under the writer lock and
// publishes it, unless fn fails.
func (db *DB) write(fn func(next *catalog) error) error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	cur := db.cat.Load()
	next := &catalog{ver: cur.ver + 1, tables: maps.Clone(cur.tables), merges: maps.Clone(cur.merges)}
	if err := fn(next); err != nil {
		return err
	}
	db.cat.Store(next)
	return nil
}

// publish installs t as table key's next version. delta is the signed
// row-count change per dataset value: each value it changes is stamped with
// this version, and a value left without rows is dropped.
func (c *catalog) publish(key string, t *Table, old map[string]dsStamp, delta map[string]int) {
	stamps := map[string]dsStamp{}
	maps.Copy(stamps, old)
	for ds, d := range delta {
		if n := stamps[ds].rows + d; n <= 0 {
			delete(stamps, ds)
		} else if d != 0 {
			stamps[ds] = dsStamp{n, c.ver}
		}
	}
	c.tables[key] = &relation{t: t, stamps: stamps}
}

// datasetCounts tallies t's rows per value of its String "dataset" column
// (NULL counts as ""); the map is empty when t has no such column.
func datasetCounts(t *Table) map[string]int {
	out := map[string]int{}
	if i := t.schema.ColIndex("dataset"); i >= 0 && t.cols[i].typ == String {
		v := t.cols[i]
		per := make([]int, v.dict.Size())
		for _, code := range v.codes {
			per[code]++
		}
		for code, n := range per {
			if n > 0 {
				out[v.dict.values[code]] += n
			}
		}
	}
	return out
}

// table resolves a base relation a statement reads. A merge table is a
// relation only as the whole FROM of a join-free statement, so naming one
// here means a JOIN over it.
func (c *catalog) table(name string) (*Table, error) {
	key := strings.ToLower(name)
	if r := c.tables[key]; r != nil {
		return r.t, nil
	}
	if c.merges[key] != nil {
		return nil, fmt.Errorf("engine: JOIN over merge tables is not supported")
	}
	return nil, unknownTable(name)
}

// mergeOf returns the merge table st reads, or nil when it reads base
// tables.
func (c *catalog) mergeOf(st *SelectStmt) *MergeTable {
	if len(st.Joins) > 0 {
		return nil
	}
	return c.merges[strings.ToLower(st.From)]
}

func unknownTable(name string) error { return fmt.Errorf("engine: unknown table %q", name) }

// CreateTable registers an empty table with the given schema.
func (db *DB) CreateTable(name string, schema Schema) error {
	key := strings.ToLower(name)
	return db.write(func(c *catalog) error {
		if c.tables[key] != nil {
			return fmt.Errorf("engine: table %q already exists", name)
		}
		if c.merges[key] != nil {
			return fmt.Errorf("engine: merge table %q already exists", name)
		}
		c.publish(key, NewTable(schema), nil, nil)
		engTables.Inc()
		return nil
	})
}

// RegisterTable installs t under the given name, replacing any previous
// table and restamping every dataset value (used by the ETL loaders). The
// DB adopts t's columns clipped to their length, so its appends never
// write into t's spare capacity; the caller must not modify t afterwards.
func (db *DB) RegisterTable(name string, t *Table) {
	key := strings.ToLower(name)
	t = t.Slice(0, t.NumRows())
	_ = db.write(func(c *catalog) error { // never fails
		if c.tables[key] == nil {
			engTables.Inc()
		}
		c.publish(key, t, nil, datasetCounts(t))
		return nil
	})
}

// Append adds rows, which must have the table's schema, to the named base
// table as one write: the path for loaders that grow a registered table.
// rows is copied, not adopted.
func (db *DB) Append(name string, rows *Table) error {
	key := strings.ToLower(name)
	return db.write(func(c *catalog) error {
		r := c.tables[key]
		if r == nil {
			return unknownTable(name)
		}
		t, err := r.t.extend(rows)
		if err != nil {
			return err
		}
		c.publish(key, t, r.stamps, datasetCounts(rows))
		return nil
	})
}

// Table returns the named base table's current version, or nil. It is
// read-only; later writes publish new versions and leave it unchanged.
func (db *DB) Table(name string) *Table {
	if r := db.cat.Load().tables[strings.ToLower(name)]; r != nil {
		return r.t
	}
	return nil
}

// DropTable removes a base or merge table.
func (db *DB) DropTable(name string) bool {
	key := strings.ToLower(name)
	return db.write(func(c *catalog) error {
		switch {
		case c.tables[key] != nil:
			delete(c.tables, key)
			engTables.Dec()
		case c.merges[key] != nil:
			delete(c.merges, key)
		default:
			return unknownTable(name)
		}
		return nil
	}) == nil
}

// RegisterMerge installs a merge table: a non-materialized UNION ALL view
// over remote parts, MonetDB-style. Queries against it push partial
// aggregates down to the parts where possible.
func (db *DB) RegisterMerge(name string, m *MergeTable) {
	_ = db.write(func(c *catalog) error { // never fails
		c.merges[strings.ToLower(name)] = m
		return nil
	})
}

// Merge returns the named merge table, or nil.
func (db *DB) Merge(name string) *MergeTable {
	return db.cat.Load().merges[strings.ToLower(name)]
}

// TableNames lists base tables, sorted.
func (db *DB) TableNames() []string {
	tables := db.cat.Load().tables
	out := make([]string, 0, len(tables))
	for n := range tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Query parses and executes a single SQL statement and returns its result
// table (nil for DDL/DML statements).
func (db *DB) Query(sql string) (*Table, error) {
	t, _, err := db.QueryWithStats(sql)
	return t, err
}

// QueryCtx is Query under a caller-supplied context: cancelling ctx aborts
// the statement at the next morsel boundary with verdict "cancelled".
func (db *DB) QueryCtx(ctx context.Context, sql string) (*Table, error) {
	t, _, err := db.QueryWithStatsCtx(ctx, sql)
	return t, err
}

// QueryWithStats executes a statement and additionally returns its
// execution statistics (rows scanned, vectors, per-operator nanos). The
// statement is always folded into the engine metrics; callers that want
// the stats on a trace span use this form.
func (db *DB) QueryWithStats(sql string) (*Table, QueryStats, error) {
	return db.QueryWithStatsCtx(context.Background(), sql)
}

// QueryWithStatsCtx is QueryWithStats under a caller-supplied context. The
// statement registers in the active-query registry, runs under a derived
// cancellation context (caller ctx + optional deadline + optional memory
// ceiling), and records its verdict on the returned stats.
func (db *DB) QueryWithStatsCtx(ctx context.Context, sql string) (*Table, QueryStats, error) {
	return db.queryAt(ctx, db.cat.Load(), sql, false)
}

// Snapshot is a read handle on one catalog version: every statement run
// through it resolves its relations from that version, whatever writers
// have published since. Holding it keeps the version's tables alive.
type Snapshot struct {
	db  *DB
	cat *catalog
}

// Snapshot pins the DB's current catalog version.
func (db *DB) Snapshot() *Snapshot { return &Snapshot{db: db, cat: db.cat.Load()} }

// QueryWithStatsCtx runs a read statement at the pinned version, governed,
// counted and recorded like DB.QueryWithStatsCtx. A write is refused: it
// could only publish onto the current version, not the pinned one.
func (s *Snapshot) QueryWithStatsCtx(ctx context.Context, sql string) (*Table, QueryStats, error) {
	return s.db.queryAt(ctx, s.cat, sql, true)
}

// queryAt runs sql with every relation resolved from cat; readOnly refuses
// anything but a SELECT or an EXPLAIN of one.
func (db *DB) queryAt(ctx context.Context, cat *catalog, sql string, readOnly bool) (*Table, QueryStats, error) {
	db.queries.Add(1)
	qs := newQueryStats(ctx, sql)
	st, entry, hit, err := db.parseCached(sql)
	if err == nil && readOnly && !isRead(st) {
		err = fmt.Errorf("engine: a snapshot runs only SELECT statements")
	}
	if err != nil {
		// Nothing to govern, but the attempt is still a statement: it is
		// counted, metered and audited like one that failed while running.
		qs.emit(err, !db.ec.Load().NoAccounting)
		return nil, qs, err
	}
	if hit {
		qs.Cache = obs.CachePlan
	}
	ec, finish := db.beginQuery(ctx, &qs)
	ec.plan = entry
	t, err := db.run(cat, st, &qs, ec)
	finish(err)
	return t, qs, err
}

// isRead reports whether st only reads: a SELECT or an EXPLAIN of one.
func isRead(st Statement) bool {
	if ex, ok := st.(*ExplainStmt); ok {
		st = ex.Stmt
	}
	_, ok := st.(*SelectStmt)
	return ok
}

// beginQuery derives the statement's ExecContext from the DB snapshot and
// enrolls it in the governance layer: cancellation context (with optional
// deadline), memory accountant (with optional ceiling), and a registry
// handle. The returned finish must be called exactly once when the
// statement ends; it deregisters the query, releases its resources, and
// emits its record.
func (db *DB) beginQuery(ctx context.Context, qs *QueryStats) (*ExecContext, func(error)) {
	ecq := *db.ec.Load()
	if ctx == nil {
		ctx = context.Background()
	}
	if ecq.NoAccounting {
		if ctx.Done() != nil {
			ecq.Ctx = ctx
		}
		return &ecq, func(err error) { qs.emit(err, false) }
	}
	cctx, cancel := context.WithCancelCause(ctx)
	var stopDeadline context.CancelFunc
	if d := ecq.QueryDeadline; d > 0 {
		cctx, stopDeadline = context.WithDeadlineCause(cctx, time.Now().Add(d), ErrQueryDeadline)
	}
	acct := &MemAccountant{limit: ecq.QueryMemLimit}
	if ecq.SpillDir != "" && ecq.QueryMemLimit > 0 {
		// Soft budget: spill-aware operators poll acct.OverLimit() and
		// shed partitions to disk instead of the query being killed.
		ecq.spill = &spillSession{base: ecq.SpillDir}
	} else {
		acct.onExceed = func() { cancel(ErrQueryMemLimit) }
	}
	h := Queries.register(&qs.QueryRecord, cancel, acct)
	ecq.Ctx = cctx
	ecq.Acct = acct
	ecq.query = h
	qs.acct = acct
	qs.handle = h
	return &ecq, func(err error) {
		Queries.finish(h)
		if ecq.spill != nil {
			ecq.spill.cleanup()
		}
		qs.MemPeakBytes = acct.Peak()
		qs.SpillBytes = h.spillBytes.Load()
		qs.SpillPartitions = h.spillParts.Load()
		qs.emit(err, true)
		if stopDeadline != nil {
			stopDeadline()
		}
		cancel(nil)
	}
}

// run executes st, resolving every relation it reads from cat.
func (db *DB) run(cat *catalog, st Statement, qs *QueryStats, ec *ExecContext) (*Table, error) {
	switch s := st.(type) {
	case *ExplainStmt:
		return db.runExplain(cat, s, qs, ec)
	case *SelectStmt:
		if m := cat.mergeOf(s); m != nil {
			return m.execSelect(ec, s, qs)
		}
		if len(s.Joins) > 0 || s.FromAlias != "" {
			plan, err := cat.planJoins(s, !ec.NoJoinReorder)
			if err != nil {
				return nil, err
			}
			joined, err := buildJoined(ec, s, plan, qs)
			if err != nil {
				return nil, err
			}
			// The planner pushed single-table conjuncts below the joins;
			// only the residual reaches the statement's filter stage.
			local := *s
			local.Where = plan.residual
			return execSelect(ec, &local, joined, qs)
		}
		t, err := cat.table(s.From)
		if err != nil {
			return nil, err
		}
		t = narrowed(s, t)
		qs.Root = scanPlanNode(s.From, t)
		return execSelect(ec, s, source{t: t}, qs)
	case *CreateTableStmt:
		return nil, db.CreateTable(s.Name, s.Schema)
	case *InsertStmt:
		return nil, db.runInsert(s)
	case *DropTableStmt:
		if !db.DropTable(s.Name) && !s.IfExists {
			return nil, unknownTable(s.Name)
		}
		return nil, nil
	case *DeleteStmt:
		return nil, db.runDelete(s)
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", st)
}

// runExplain serves EXPLAIN and EXPLAIN ANALYZE. Plain EXPLAIN predicts
// the plan shape from the catalog without executing; ANALYZE executes the
// inner statement (sharing the caller's QueryStats, so the statement still
// publishes exactly once) and renders the measured tree. Either way the
// result is a one-column table of plan lines.
func (db *DB) runExplain(cat *catalog, s *ExplainStmt, qs *QueryStats, ec *ExecContext) (*Table, error) {
	if s.Analyze {
		// Surface (and use) the plan cache for the inner SELECT: EXPLAIN
		// parses as one ExplainStmt, so the inner statement bypassed
		// parseCached. A peek under the inner text as written neither
		// inserts nor reorders the LRU beyond the hit itself; the trailing
		// cache= line reports the outcome.
		cacheLine := ""
		if _, ok := s.Stmt.(*SelectStmt); ok && ec != nil {
			if e := db.plans.get(s.SQL); e != nil {
				ec.plan = e
				qs.Cache = obs.CachePlan
				cacheLine = "cache=hit"
			} else {
				cacheLine = "cache=miss"
			}
		}
		if _, err := db.run(cat, s.Stmt, qs, ec); err != nil {
			return nil, err
		}
		t, err := planTable(qs.Root, true)
		if err != nil || cacheLine == "" {
			return t, err
		}
		if err := t.AppendRow(cacheLine); err != nil {
			return nil, err
		}
		return t, nil
	}
	plan, err := cat.explainPlan(ec, s.Stmt)
	if err != nil {
		return nil, err
	}
	qs.Root = plan
	return planTable(plan, false)
}

// runInsert converts the statement's rows to the table's schema and adds
// them with Append, so a failing row publishes none of them.
func (db *DB) runInsert(s *InsertStmt) error {
	t := db.Table(s.Name)
	if t == nil {
		return unknownTable(s.Name)
	}
	colIdx := make([]int, 0, len(t.schema))
	if len(s.Cols) == 0 {
		for i := range t.schema {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, c := range s.Cols {
			i := t.schema.ColIndex(c)
			if i < 0 {
				return fmt.Errorf("engine: unknown column %q", c)
			}
			colIdx = append(colIdx, i)
		}
	}
	rows := NewTable(t.schema)
	for _, row := range s.Rows {
		if len(row) != len(colIdx) {
			return fmt.Errorf("engine: row has %d values, expected %d", len(row), len(colIdx))
		}
		full := make([]any, len(t.schema))
		for k, ci := range colIdx {
			full[ci] = row[k]
		}
		if err := rows.AppendRow(full...); err != nil {
			return err
		}
	}
	return db.Append(s.Name, rows)
}

// runDelete publishes the gathered copy of the rows the predicate keeps.
func (db *DB) runDelete(s *DeleteStmt) error {
	key := strings.ToLower(s.Name)
	return db.write(func(c *catalog) error {
		r := c.tables[key]
		if r == nil {
			return unknownTable(s.Name)
		}
		kept := NewTable(r.t.schema)
		if s.Where != nil {
			sel, err := FilterSel(&Unary{Op: "NOT", X: wrapNullFalse(s.Where)}, r.t)
			if err != nil {
				return err
			}
			kept = r.t.Gather(sel)
		}
		delta := datasetCounts(kept)
		for ds, st := range r.stamps {
			delta[ds] -= st.rows
		}
		c.publish(key, kept, r.stamps, delta)
		return nil
	})
}

// wrapNullFalse turns NULL predicate results into FALSE so that
// DELETE ... WHERE keeps rows whose predicate is NULL (SQL semantics: only
// rows where the predicate is TRUE are deleted).
func wrapNullFalse(e Expr) Expr {
	return &Call{Name: "coalesce", Args: []Expr{e, &Lit{Val: false}}}
}
