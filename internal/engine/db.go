package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mip/internal/obs"
)

// DB is the engine's catalog: named base tables plus registered merge
// tables (the federation views). All methods are safe for concurrent use.
type DB struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	merges  map[string]*MergeTable
	queries atomic.Int64
	ec      atomic.Pointer[ExecContext]

	// id scopes this DB's plan-cache keys; schemaVer bumps on every DDL
	// (CREATE/DROP/RegisterTable/RegisterMerge), making older cached plans
	// unreachable. dataVer additionally bumps on DML, giving callers (the
	// federation worker) a cheap monotonic data-version stamp for result
	// caching.
	id        uint64
	schemaVer atomic.Uint64
	dataVer   atomic.Uint64
	// blindVer counts the dataVer advances no row-count diff can attribute:
	// explicit BumpDataVersion calls and DDL (RegisterTable can swap a
	// table wholesale without changing its row count). Result caches that
	// attribute changes by diffing per-dataset counts treat any advance
	// here as "anything may have changed".
	blindVer atomic.Uint64
	plans    *PlanCache
}

// QueryCount returns the number of statements executed so far (scans,
// DDL, DML alike); the UDF-fusion tests and benchmarks use it to assert
// the single-scan property.
func (db *DB) QueryCount() int64 { return db.queries.Load() }

// Option configures a DB at construction.
type Option func(*DB)

// WithParallelism sets the DB's execution parallelism degree: how many
// morsels its queries process concurrently (1 = serial). Values < 1 keep
// the process default (runtime.NumCPU, or SetDefaultParallelism).
func WithParallelism(n int) Option {
	return func(db *DB) {
		if n >= 1 {
			db.SetParallelism(n)
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

// WithPlanCacheSize gives the DB a private plan cache of the given
// capacity; n <= 0 disables plan caching for this DB.
func WithPlanCacheSize(n int) Option {
	return func(db *DB) { db.plans = NewPlanCache(n) }
}

// WithPlanCacheIdentity replaces the DB's process-unique plan-cache key
// namespace with a shared token from NewPlanCacheIdentity. Only safe when
// every DB using the token applies the identical DDL sequence, so that an
// equal (identity, schema version) pair implies an identical catalog
// shape; zero is ignored.
func WithPlanCacheIdentity(id uint64) Option {
	return func(db *DB) {
		if id != 0 {
			db.id = id
		}
	}
}

// NewDB returns an empty database.
func NewDB(opts ...Option) *DB {
	db := &DB{
		tables: make(map[string]*Table),
		merges: make(map[string]*MergeTable),
		id:     dbSeq.Add(1),
		plans:  DefaultPlanCache,
	}
	db.ec.Store(&ExecContext{Parallelism: DefaultParallelism(), MorselSize: DefaultMorselSize})
	for _, o := range opts {
		o(db)
	}
	return db
}

// PlanCache returns the cache this DB resolves statements through (nil
// when disabled).
func (db *DB) PlanCache() *PlanCache { return db.plans }

// DataVersion is a monotonic counter covering every mutation of this DB's
// catalog or data: DDL, INSERT, DELETE, and explicit BumpDataVersion calls.
// Equal values mean no statement-visible change happened in between.
func (db *DB) DataVersion() uint64 { return db.dataVer.Load() }

// BumpDataVersion advances the data-version counter. Loaders that mutate a
// registered *Table in place (bypassing SQL) call this so result caches
// keyed on the version never serve stale data.
func (db *DB) BumpDataVersion() {
	db.blindVer.Add(1)
	db.dataVer.Add(1)
}

// DataBumps counts the data-version advances that cannot be attributed to
// a row-count-visible DML statement: explicit BumpDataVersion calls and
// DDL. While it holds still, every DataVersion advance came from an
// INSERT or DELETE, whose effects are visible in per-dataset row counts.
func (db *DB) DataBumps() uint64 { return db.blindVer.Load() }

// bumpSchema records a DDL change: cached plans become unreachable and the
// data version advances too (a schema change is also a data change).
func (db *DB) bumpSchema() {
	db.schemaVer.Add(1)
	db.blindVer.Add(1)
	db.dataVer.Add(1)
}

// SetParallelism changes the DB's parallelism degree at runtime (n < 1 is
// ignored). It also grows the shared worker pool to serve the new degree.
func (db *DB) SetParallelism(n int) {
	if n < 1 {
		return
	}
	cur := *db.ec.Load()
	cur.Parallelism = n
	db.ec.Store(&cur)
	enginePool.grow(n - 1)
}

// Parallelism returns the DB's configured parallelism degree.
func (db *DB) Parallelism() int { return db.ec.Load().Parallelism }

// execCtx returns the DB's execution context (immutable snapshot).
func (db *DB) execCtx() *ExecContext { return db.ec.Load() }

// CreateTable registers an empty table with the given schema.
func (db *DB) CreateTable(name string, schema Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; ok {
		return nil, fmt.Errorf("engine: table %q already exists", name)
	}
	if _, ok := db.merges[key]; ok {
		return nil, fmt.Errorf("engine: merge table %q already exists", name)
	}
	t := NewTable(schema)
	db.tables[key] = t
	engTables.Inc()
	db.bumpSchema()
	return t, nil
}

// RegisterTable installs an existing table under the given name, replacing
// any previous table (used by the ETL loaders).
func (db *DB) RegisterTable(name string, t *Table) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; !ok {
		engTables.Inc()
	}
	db.tables[key] = t
	db.bumpSchema()
}

// Table returns the named base table, or nil.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[strings.ToLower(name)]
}

// DropTable removes a base or merge table.
func (db *DB) DropTable(name string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; ok {
		delete(db.tables, key)
		engTables.Dec()
		db.bumpSchema()
		return true
	}
	if _, ok := db.merges[key]; ok {
		delete(db.merges, key)
		db.bumpSchema()
		return true
	}
	return false
}

// RegisterMerge installs a merge table: a non-materialized UNION ALL view
// over remote parts, MonetDB-style. Queries against it push partial
// aggregates down to the parts where possible.
func (db *DB) RegisterMerge(name string, m *MergeTable) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.merges[strings.ToLower(name)] = m
	db.bumpSchema()
}

// Merge returns the named merge table, or nil.
func (db *DB) Merge(name string) *MergeTable {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.merges[strings.ToLower(name)]
}

// TableNames lists base tables, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
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
	db.queries.Add(1)
	qs := newQueryStats(ctx, sql)
	st, entry, hit, err := db.parseCached(sql)
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
	t, err := db.run(st, &qs, ec)
	finish(err)
	return t, qs, err
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

// Run executes a parsed statement, governed and recorded like Query. A
// SELECT is recorded under its canonical rendering; other statement kinds
// have no renderer and keep a placeholder.
func (db *DB) Run(st Statement) (*Table, error) {
	db.queries.Add(1)
	sql := "(prepared statement)"
	if sel, ok := st.(*SelectStmt); ok {
		sql = RenderSelect(sel)
	}
	ctx := context.Background()
	qs := newQueryStats(ctx, sql)
	ec, finish := db.beginQuery(ctx, &qs)
	t, err := db.run(st, &qs, ec)
	finish(err)
	return t, err
}

func (db *DB) run(st Statement, qs *QueryStats, ec *ExecContext) (*Table, error) {
	switch s := st.(type) {
	case *ExplainStmt:
		return db.runExplain(s, qs, ec)
	case *SelectStmt:
		if m := db.Merge(s.From); m != nil {
			if len(s.Joins) > 0 {
				return nil, fmt.Errorf("engine: JOIN over merge tables is not supported")
			}
			return m.execSelect(ec, s, qs)
		}
		if len(s.Joins) > 0 || s.FromAlias != "" {
			// Grouped aggregate over one join whose materialized result
			// would blow the memory budget: stream the grace join's merged
			// output straight into the spilled aggregation instead.
			if out, handled, err := db.trySpillJoinAgg(ec, s, qs); handled || err != nil {
				return out, err
			}
			joined, residual, err := db.buildJoined(ec, s, qs)
			if err != nil {
				return nil, err
			}
			// The planner pushed single-table conjuncts below the joins;
			// only the residual reaches the statement's filter stage.
			local := *s
			local.Where = residual
			return execSelect(ec, &local, joined, qs)
		}
		t := db.Table(s.From)
		if t == nil {
			return nil, fmt.Errorf("engine: unknown table %q", s.From)
		}
		qs.Root = scanPlanNode(s.From, t)
		db.mu.RLock()
		defer db.mu.RUnlock()
		return execSelect(ec, s, t, qs)
	case *CreateTableStmt:
		_, err := db.CreateTable(s.Name, s.Schema)
		return nil, err
	case *InsertStmt:
		return nil, db.runInsert(s)
	case *DropTableStmt:
		if !db.DropTable(s.Name) && !s.IfExists {
			return nil, fmt.Errorf("engine: unknown table %q", s.Name)
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
func (db *DB) runExplain(s *ExplainStmt, qs *QueryStats, ec *ExecContext) (*Table, error) {
	if s.Analyze {
		// Surface (and use) the plan cache for the inner SELECT: EXPLAIN
		// parses as one ExplainStmt, so the inner statement bypassed
		// parseCached. A peek neither inserts nor reorders the LRU beyond the
		// hit itself; the trailing cache= line reports the outcome.
		cacheLine := ""
		if sel, ok := s.Stmt.(*SelectStmt); ok && ec != nil {
			if e, hit := db.lookupSelect(sel); hit {
				ec.plan = e
				qs.Cache = obs.CachePlan
				cacheLine = "cache=hit"
			} else {
				cacheLine = "cache=miss"
			}
		}
		if _, err := db.run(s.Stmt, qs, ec); err != nil {
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
	plan, err := db.explainPlan(s.Stmt)
	if err != nil {
		return nil, err
	}
	qs.Root = plan
	return planTable(plan, false)
}

func (db *DB) runInsert(s *InsertStmt) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t := db.tables[strings.ToLower(s.Name)]
	if t == nil {
		return fmt.Errorf("engine: unknown table %q", s.Name)
	}
	defer db.dataVer.Add(1)
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
	for _, row := range s.Rows {
		if len(row) != len(colIdx) {
			return fmt.Errorf("engine: row has %d values, expected %d", len(row), len(colIdx))
		}
		full := make([]any, len(t.schema))
		for k, ci := range colIdx {
			full[ci] = row[k]
		}
		if err := t.AppendRow(full...); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) runDelete(s *DeleteStmt) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t := db.tables[strings.ToLower(s.Name)]
	if t == nil {
		return fmt.Errorf("engine: unknown table %q", s.Name)
	}
	defer db.dataVer.Add(1)
	if s.Where == nil {
		db.tables[strings.ToLower(s.Name)] = NewTable(t.schema)
		return nil
	}
	sel, err := FilterSel(&Unary{Op: "NOT", X: wrapNullFalse(s.Where)}, t)
	if err != nil {
		return err
	}
	db.tables[strings.ToLower(s.Name)] = t.Gather(sel)
	return nil
}

// wrapNullFalse turns NULL predicate results into FALSE so that
// DELETE ... WHERE keeps rows whose predicate is NULL (SQL semantics: only
// rows where the predicate is TRUE are deleted).
func wrapNullFalse(e Expr) Expr {
	return &Call{Name: "coalesce", Args: []Expr{e, &Lit{Val: false}}}
}
