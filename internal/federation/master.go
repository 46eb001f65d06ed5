package federation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mip/internal/engine"
	"mip/internal/obs"
	"mip/internal/smpc"
)

// WorkerClient is the master's handle to a worker node, implemented
// directly by *Worker (in-process deployments) and by the HTTP client
// (multi-process deployments).
type WorkerClient interface {
	ID() string
	Datasets() ([]string, error)
	LocalRun(req LocalRunRequest) (LocalRunResponse, error)
	Query(sql string) (*engine.Table, error)
}

// Master governs the communication with and among the workers, keeps track
// of dataset availability for algorithm shipping, orchestrates algorithm
var masterLog = obs.Logger("master")

// flows and handles the aggregates coming back from local computations.
type Master struct {
	mu       sync.Mutex
	workers  []WorkerClient
	byID     map[string]WorkerClient
	workerDS map[string][]string // worker id → last-known datasets
	avail    map[string][]string // dataset → worker ids (derived from workerDS)
	smpc     *smpc.Cluster
	jobSeq   int
	security Security

	// Fault tolerance: per-worker circuit breakers plus the default
	// degraded-aggregation policy new sessions inherit.
	healthMu  sync.Mutex
	health    map[string]*workerHealth
	breaker   BreakerConfig
	tolerance Tolerance
	stopProbe chan struct{}
	closeOnce sync.Once
	now       func() time.Time

	// engineOpts configure the transient merge databases master-side
	// queries run on (WithEngineOptions). mergePlanID is the plan-cache
	// identity all of this master's merge DBs share, so their cache keys
	// coincide across queries (see newMergeDB).
	engineOpts  []engine.Option
	mergePlanID uint64

	// Result cache (nil = disabled) plus the per-worker dataset-version
	// snapshots it validates entries against.
	results    *ResultCache
	verMu      sync.Mutex
	workerVers map[string]workerVerState
}

// MasterOption configures a Master.
type MasterOption func(*Master)

// WithBreaker overrides the per-worker circuit-breaker configuration.
func WithBreaker(b BreakerConfig) MasterOption {
	return func(m *Master) { m.breaker = b }
}

// WithTolerance sets the default degraded-aggregation policy inherited by
// new sessions and by MergeQuery.
func WithTolerance(t Tolerance) MasterOption {
	return func(m *Master) { m.tolerance = t }
}

// WithResultCacheBytes enables the master's federated result cache with
// the given byte budget (<= 0 leaves it disabled). Repeated identical
// aggregates are served from memory as long as every involved worker's
// dataset versions still match; see resultcache.go for the invalidation
// contract.
func WithResultCacheBytes(budget int64) MasterOption {
	return func(m *Master) { m.results = NewResultCache(budget) }
}

// WithEngineOptions sets the engine options applied to the master's
// transient merge databases (MergeQuery, Explain) — parallelism and the
// per-query deadline/memory ceilings, so a federated statement is governed
// on the master exactly like a worker-local one.
func WithEngineOptions(opts ...engine.Option) MasterOption {
	return func(m *Master) { m.engineOpts = opts }
}

// Security selects the aggregation path for a master.
type Security struct {
	// UseSMPC routes aggregation through the SMPC cluster.
	UseSMPC bool
	// Noise is applied inside the SMPC protocol (secure aggregation with
	// central noise) when UseSMPC is set.
	Noise smpc.Noise
}

// NewMaster builds a master over the given workers. Workers whose initial
// availability scan fails are not fatal: they are skipped (their circuit
// breaker records the failure) and re-probed in the background until they
// come back — the flaky-site survival the clinical deployments demand.
func NewMaster(workers []WorkerClient, cluster *smpc.Cluster, sec Security, opts ...MasterOption) (*Master, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("federation: master needs at least one worker")
	}
	if sec.UseSMPC && cluster == nil {
		return nil, fmt.Errorf("federation: SMPC security requested but no cluster provided")
	}
	m := &Master{
		workers:     workers,
		byID:        make(map[string]WorkerClient, len(workers)),
		workerDS:    make(map[string][]string),
		avail:       make(map[string][]string),
		smpc:        cluster,
		security:    sec,
		health:      make(map[string]*workerHealth, len(workers)),
		stopProbe:   make(chan struct{}),
		now:         time.Now,
		mergePlanID: engine.NewPlanCacheIdentity(),
	}
	for _, w := range workers {
		if _, dup := m.byID[w.ID()]; dup {
			return nil, fmt.Errorf("federation: duplicate worker id %q", w.ID())
		}
		m.byID[w.ID()] = w
		m.health[w.ID()] = &workerHealth{}
		workerStateGauge(w.ID()).Set(0)
	}
	for _, o := range opts {
		o(m)
	}
	// Best-effort initial scan: unreachable workers are degraded, not fatal.
	_ = m.RefreshAvailability()
	if iv := m.breaker.probeInterval(); iv > 0 {
		go m.probeLoop(iv)
	}
	registerMaster(m)
	return m, nil
}

// Close stops the background re-probe loop and releases the master's
// observability registration so the worker gauge stops counting its
// workers. Safe to call more than once.
func (m *Master) Close() {
	m.closeOnce.Do(func() { close(m.stopProbe) })
	unregisterMaster(m)
}

// RefreshAvailability re-scans every worker's datasets concurrently,
// degrading gracefully: broken workers are skipped (and drop out of the
// availability map until the background probe readmits them) instead of
// failing the whole scan. It returns an error only when no worker could be
// scanned at all.
func (m *Master) RefreshAvailability() error {
	workers := m.Workers()
	type scan struct {
		id      string
		ds      []string
		err     error
		skipped bool
	}
	results := make([]scan, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		id := w.ID()
		if !m.allowCall(id) {
			results[i] = scan{id: id, skipped: true}
			continue
		}
		wg.Add(1)
		go func(i int, w WorkerClient) {
			defer wg.Done()
			ds, err := w.Datasets()
			m.reportResult(w.ID(), err)
			results[i] = scan{id: w.ID(), ds: ds, err: err}
		}(i, w)
	}
	wg.Wait()
	ok := 0
	var firstErr error
	m.mu.Lock()
	for _, r := range results {
		switch {
		case r.skipped:
			// Circuit open: keep nothing stale around.
			delete(m.workerDS, r.id)
		case r.err != nil:
			delete(m.workerDS, r.id)
			if firstErr == nil {
				firstErr = fmt.Errorf("federation: worker %s availability: %w", r.id, r.err)
			}
		default:
			m.workerDS[r.id] = r.ds
			ok++
		}
	}
	m.rebuildAvailLocked()
	m.mu.Unlock()
	if ok == 0 {
		if firstErr != nil {
			return firstErr
		}
		return fmt.Errorf("federation: no worker reachable (all circuits open)")
	}
	return nil
}

// rebuildAvailLocked derives the dataset → worker-ids map from the
// per-worker dataset records. Caller holds m.mu.
func (m *Master) rebuildAvailLocked() {
	m.avail = make(map[string][]string, len(m.avail))
	for _, w := range m.workers {
		for _, d := range m.workerDS[w.ID()] {
			m.avail[d] = append(m.avail[d], w.ID())
		}
	}
}

// Availability returns dataset → sorted worker ids.
func (m *Master) Availability() map[string][]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]string, len(m.avail))
	for d, ws := range m.avail {
		cp := append([]string(nil), ws...)
		sort.Strings(cp)
		out[d] = cp
	}
	return out
}

// Datasets lists all known datasets, sorted.
func (m *Master) Datasets() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.avail))
	for d := range m.avail {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Workers returns all worker handles.
func (m *Master) Workers() []WorkerClient {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]WorkerClient(nil), m.workers...)
}

// WorkersFor selects the workers holding any of the requested datasets —
// the "efficient algorithm shipping" the paper attributes to availability
// tracking. Empty datasets selects every worker.
func (m *Master) WorkersFor(datasets []string) []WorkerClient {
	if len(datasets) == 0 {
		return m.Workers()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := map[string]bool{}
	for _, d := range datasets {
		for _, id := range m.avail[d] {
			ids[id] = true
		}
	}
	var out []WorkerClient
	for _, w := range m.workers {
		if ids[w.ID()] {
			out = append(out, w)
		}
	}
	return out
}

// Tolerance is a session's degraded-aggregation policy: how many workers
// may drop out of a step before the step fails, and how long to wait for
// stragglers. The zero value requires every worker (no degradation) — the
// safe default for result fidelity.
type Tolerance struct {
	// MinWorkers is the absolute quorum: a step succeeds (degraded) as long
	// as at least this many workers respond.
	MinWorkers int
	// Quorum is a fractional quorum over the session's workers (e.g. 0.5).
	// The effective quorum is max(MinWorkers, ceil(Quorum·N)).
	Quorum float64
	// StepDeadline bounds one fan-out: workers that have not replied when
	// it expires are dropped (counting against the quorum). Zero waits
	// indefinitely.
	StepDeadline time.Duration
}

// Required returns the effective quorum for n workers.
func (t Tolerance) Required(n int) int {
	if t.MinWorkers <= 0 && t.Quorum <= 0 {
		return n
	}
	req := t.MinWorkers
	if t.Quorum > 0 {
		if q := int(math.Ceil(t.Quorum * float64(n))); q > req {
			req = q
		}
	}
	if req < 1 {
		req = 1
	}
	if req > n {
		req = n
	}
	return req
}

// NewSession opens an execution session for one experiment, scoped to the
// workers that hold the requested datasets. The session inherits the
// master's default Tolerance; override per experiment with SetTolerance.
func (m *Master) NewSession(datasets []string) (*Session, error) {
	ws := m.WorkersFor(datasets)
	if len(ws) == 0 {
		return nil, fmt.Errorf("federation: no worker holds datasets %v", datasets)
	}
	m.mu.Lock()
	m.jobSeq++
	id := fmt.Sprintf("exp-%d", m.jobSeq)
	tol := m.tolerance
	m.mu.Unlock()
	return &Session{
		id:        id,
		master:    m,
		workers:   ws,
		datasets:  datasets,
		tolerance: tol,
		cancelCh:  make(chan struct{}),
	}, nil
}

// MergeQuery registers a transient merge table over the workers' data
// tables and runs an aggregate SQL against it: the paper's non-secure
// remote/merge-table aggregation path. The query must reference DataTable.
// Under a Tolerance that admits partial results, failing parts are dropped
// as long as the quorum holds; MergeQueryDegraded reports which.
func (m *Master) MergeQuery(datasets []string, sql string) (*engine.Table, error) {
	t, _, err := m.MergeQueryDegraded(datasets, sql)
	return t, err
}

// MergeQueryDegraded is MergeQuery plus the ids of worker parts that
// failed and were dropped from the aggregate (empty on a full result).
func (m *Master) MergeQueryDegraded(datasets []string, sql string) (*engine.Table, []string, error) {
	return m.MergeQueryDegradedAs("", datasets, sql)
}

// MergeQueryDegradedAs is MergeQueryDegraded with the statement attributed
// to a tenant account: the master-side merge statement (and its shipped
// rows/bytes) meters under that tenant and lands on the audit chain.
//
// With the result cache enabled, a repeat of a complete (non-degraded)
// query whose workers' dataset versions are unchanged is served straight
// from memory — no merge database, no worker fan-out — and is still
// metered and audited under the tenant so accounting stays honest.
// Identical concurrent misses collapse into one execution.
func (m *Master) MergeQueryDegradedAs(tenant string, datasets []string, sql string) (*engine.Table, []string, error) {
	ws := m.WorkersFor(datasets)
	if len(ws) == 0 {
		return nil, nil, fmt.Errorf("federation: no worker holds datasets %v", datasets)
	}
	key, cacheable := "", false
	if m.results != nil {
		key, cacheable = m.resultKey(tenant, datasets, sql, ws)
	}
	if !cacheable {
		return m.mergeQueryExec(tenant, datasets, sql, ws)
	}
	start := m.now()
	t, f, leader := m.results.begin(key)
	if t != nil {
		m.recordServe(tenant, datasets, sql, ws, t, start, "cached")
		return t, nil, nil
	}
	if !leader {
		<-f.done
		if f.err != nil || f.table == nil {
			// The leader's failure is its own — its deadline, its caller's
			// cancellation, a cache flush aborting the flight. Don't hand
			// it to an unrelated caller; run the query for this one.
			return m.mergeQueryExec(tenant, datasets, sql, ws)
		}
		if len(f.dropped) == 0 {
			m.recordServe(tenant, datasets, sql, ws, f.table, start, "cached")
			return f.table, nil, nil
		}
		// A degraded result shared from the leader's flight is still a
		// serve: meter and audit it like every other path.
		m.recordServe(tenant, datasets, sql, ws, f.table, start, "shared-degraded")
		return f.table, f.dropped, nil
	}
	return m.runFlightLeader(key, f, tenant, datasets, sql, ws)
}

// runFlightLeader executes a singleflight leader's query, guaranteeing the
// flight is finished (waiters released) no matter how execution ends: a
// panicking leader publishes an error to its waiters before re-panicking,
// instead of leaving the inflight entry blocking every future identical
// query forever.
func (m *Master) runFlightLeader(key string, f *resultFlight, tenant string, datasets []string, sql string, ws []WorkerClient) (t *engine.Table, dropped []string, err error) {
	defer func() {
		if p := recover(); p != nil {
			m.results.finish(key, f, nil, nil, fmt.Errorf("federation: query leader panicked: %v", p))
			panic(p)
		}
		m.results.finish(key, f, t, dropped, err)
	}()
	return m.mergeQueryExec(tenant, datasets, sql, ws)
}

// newMergeDB builds the transient merge database for one master-side
// statement over the given workers. All of a master's merge DBs share one
// plan-cache identity: they apply the identical schema (RegisterMerge of
// DataTable on a fresh DB), so their plan-cache keys coincide and a
// repeated federated statement hits the memoized plan instead of every
// query inserting keys no later DB could ever reach.
func (m *Master) newMergeDB(ws []WorkerClient) (*engine.DB, *engine.MergeTable) {
	opts := append(append([]engine.Option(nil), m.engineOpts...),
		engine.WithPlanCacheIdentity(m.mergePlanID))
	mdb := engine.NewDB(opts...)
	mt := &engine.MergeTable{TableName: DataTable}
	for _, w := range ws {
		mt.Parts = append(mt.Parts, &workerPart{w: w, m: m})
	}
	if req := m.tolerance.Required(len(ws)); req < len(ws) {
		mt.MinParts = req
	}
	mdb.RegisterMerge(DataTable, mt)
	return mdb, mt
}

// mergeQueryExec runs one federated merge query over the given workers on
// a transient merge database (the uncached execution path).
func (m *Master) mergeQueryExec(tenant string, datasets []string, sql string, ws []WorkerClient) (*engine.Table, []string, error) {
	mdb, mt := m.newMergeDB(ws)
	ctx := engine.WithQueryAttribution(context.Background(),
		engine.Attribution{Tenant: tenant, Datasets: datasets})
	t, err := mdb.QueryCtx(ctx, sql)
	if err != nil {
		return nil, nil, err
	}
	dropped := mt.LastStats().FailedParts
	if len(dropped) > 0 {
		fedDegradedSteps.Inc()
		fedDroppedWorkers.Add(int64(len(dropped)))
	}
	return t, dropped, nil
}

// Explain plans a federated query over the merge view of the workers
// holding the given datasets, returning the rendered plan lines. With
// analyze set the query executes (shipping partial aggregates or rows
// exactly like MergeQuery) and the lines carry measured per-part rows and
// timings; without it only the predicted plan shape is returned.
func (m *Master) Explain(datasets []string, sql string, analyze bool) ([]string, error) {
	return m.ExplainAs("", datasets, sql, analyze)
}

// ExplainAs is Explain with the (possibly executing, under analyze)
// statement attributed to a tenant account.
//
// When the result cache holds the statement's current result, ANALYZE does
// not fabricate an operator tree that never ran: it reports a single
// `cached` node carrying the real row and byte counts of the stored
// result, and the serve is metered like any other cache hit.
func (m *Master) ExplainAs(tenant string, datasets []string, sql string, analyze bool) ([]string, error) {
	ws := m.WorkersFor(datasets)
	if len(ws) == 0 {
		return nil, fmt.Errorf("federation: no worker holds datasets %v", datasets)
	}
	if analyze && m.results != nil {
		start := m.now()
		if key, ok := m.resultKey(tenant, datasets, sql, ws); ok {
			if t, hit := m.results.lookup(key); hit {
				node := &engine.PlanNode{
					Op:      "cached",
					Detail:  "result cache",
					RowsOut: int64(t.NumRows()),
					Batches: int64(t.NumCols()),
					Bytes:   t.ByteSize(),
				}
				m.recordServe(tenant, datasets, sql, ws, t, start, "cached")
				return append(node.Render(true), "cache=hit"), nil
			}
		}
	}
	mdb, _ := m.newMergeDB(ws)
	keyword := "EXPLAIN "
	if analyze {
		keyword = "EXPLAIN ANALYZE "
	}
	ctx := engine.WithQueryAttribution(context.Background(),
		engine.Attribution{Tenant: tenant, Datasets: datasets})
	t, err := mdb.QueryCtx(ctx, keyword+sql)
	if err != nil {
		return nil, err
	}
	lines := make([]string, t.NumRows())
	for i := range lines {
		lines[i] = t.Col(0).StringAt(i)
	}
	return lines, nil
}

// recordServe emits the record of a result served without this caller
// executing — a result-cache hit ("cached") or a degraded result shared
// from a singleflight leader ("shared-degraded") — so the tenant's account
// and the audit chain do not go dark just because the query never ran.
func (m *Master) recordServe(tenant string, datasets []string, sql string, ws []WorkerClient, t *engine.Table, start time.Time, verdict string) {
	ids := make([]string, len(ws))
	for i, w := range ws {
		ids[i] = w.ID()
	}
	obs.Emit(&obs.QueryRecord{
		Kind:     obs.KindQuery,
		SQL:      sql,
		Tenant:   tenant,
		Datasets: datasets,
		Start:    start,
		Seconds:  m.now().Sub(start).Seconds(),
		Verdict:  verdict,
		RowsOut:  t.NumRows(),
		Workers:  ids,
		Cache:    obs.CacheResult,
	}, nil, true)
}

// ResultCacheStats snapshots the master's result cache (zero when the
// cache is disabled).
func (m *Master) ResultCacheStats() ResultCacheStats {
	return m.results.Stats()
}

// FlushResultCache drops every cached result, returning how many entries
// were held. Exposed through the API's cache flush endpoint.
func (m *Master) FlushResultCache() int {
	n := m.results.Stats().Entries
	m.results.Flush()
	return n
}

// workerPart adapts a WorkerClient to the engine's merge-table Part,
// feeding call outcomes into the master's circuit breakers.
type workerPart struct {
	w WorkerClient
	m *Master
}

// ctxQueryClient is the optional WorkerClient extension for context-aware
// remote queries; *Worker and the HTTP client implement it. Kept optional so
// existing fakes satisfying plain WorkerClient keep compiling.
type ctxQueryClient interface {
	QueryCtx(ctx context.Context, sql string) (*engine.Table, error)
}

// jobCanceller is the optional WorkerClient extension for aborting an
// in-flight step by job id.
type jobCanceller interface {
	CancelJob(jobID string) bool
}

func (p *workerPart) PartName() string { return p.w.ID() }

func (p *workerPart) Query(sql string) (*engine.Table, error) {
	return p.QueryCtx(context.Background(), sql)
}

// QueryCtx implements engine.CtxPart: cancelling a federated merge query on
// the master propagates to workers that understand contexts.
func (p *workerPart) QueryCtx(ctx context.Context, sql string) (*engine.Table, error) {
	if p.m != nil && !p.m.allowCall(p.w.ID()) {
		return nil, fmt.Errorf("worker %s: %w", p.w.ID(), ErrCircuitOpen)
	}
	var t *engine.Table
	var err error
	if cq, ok := p.w.(ctxQueryClient); ok {
		t, err = cq.QueryCtx(ctx, sql)
	} else {
		t, err = p.w.Query(sql)
	}
	if p.m != nil {
		p.m.reportResult(p.w.ID(), err)
	}
	return t, err
}

// Session is one experiment execution: the handle an algorithm flow uses
// to run local steps, aggregate transfers and iterate — the Go rendering of
// the paper's Figure 2 programming model.
type Session struct {
	id        string
	master    *Master
	workers   []WorkerClient
	datasets  []string
	tenant    string // owner of the experiment, for metering and audit
	stepSeq   int
	trace     obs.TraceRef // zero value disables tracing
	tolerance Tolerance

	// End-to-end cancellation: Cancel closes cancelCh (failing the current
	// and any future step) and sends a cancel RPC for the in-flight job to
	// every worker, so worker-side engine queries abort mid-step.
	cancelOnce sync.Once
	cancelCh   chan struct{} // nil in zero-value Sessions: never cancellable
	jobMu      sync.Mutex
	curJob     string

	// dropped accumulates the ids of workers excluded from degraded steps
	// (partial-aggregate metadata surfaced by the API).
	dropMu  sync.Mutex
	dropped map[string]bool

	// GlobalState carries flow state across steps (model parameters in
	// iterative algorithms).
	GlobalState any
}

// ID returns the session's experiment id.
func (s *Session) ID() string { return s.id }

// SetTrace attaches a trace context (typically the experiment root span)
// so every subsequent step records spans under it. The zero TraceRef
// disables tracing.
func (s *Session) SetTrace(ref obs.TraceRef) { s.trace = ref }

// Trace returns the session's trace context.
func (s *Session) Trace() obs.TraceRef { return s.trace }

// SetTenant attributes the session's work to a tenant: every local step
// ships the tenant to the workers, where it lands on the engine's query
// registry, the tenant meter, and the audit trail. Call before running
// steps.
func (s *Session) SetTenant(tenant string) { s.tenant = tenant }

// Tenant returns the session's tenant attribution ("" when untagged).
func (s *Session) Tenant() string { return s.tenant }

// NumWorkers returns the worker count in scope.
func (s *Session) NumWorkers() int { return len(s.workers) }

// WorkerIDs returns the ids of the workers in scope, in session order.
func (s *Session) WorkerIDs() []string {
	out := make([]string, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.ID()
	}
	return out
}

// Datasets returns the datasets in scope.
func (s *Session) Datasets() []string { return append([]string(nil), s.datasets...) }

// Secure reports whether aggregation goes through SMPC.
func (s *Session) Secure() bool { return s.master.security.UseSMPC }

// SetTolerance overrides the session's degraded-aggregation policy
// (inherited from the master by default). Call before running steps.
func (s *Session) SetTolerance(t Tolerance) { s.tolerance = t }

// Tolerance returns the session's degraded-aggregation policy.
func (s *Session) Tolerance() Tolerance { return s.tolerance }

// Dropped returns the sorted ids of workers dropped from any degraded
// step of this session — the partial-aggregate metadata recorded in
// experiment results and trace spans.
func (s *Session) Dropped() []string {
	s.dropMu.Lock()
	defer s.dropMu.Unlock()
	out := make([]string, 0, len(s.dropped))
	for id := range s.dropped {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func (s *Session) recordDropped(ids []string) {
	s.dropMu.Lock()
	defer s.dropMu.Unlock()
	if s.dropped == nil {
		s.dropped = make(map[string]bool)
	}
	for _, id := range ids {
		s.dropped[id] = true
	}
}

// nextJobID mints the globally unique computation identifier used to
// retrieve results asynchronously and to key SMPC imports.
func (s *Session) nextJobID() string {
	s.stepSeq++
	return fmt.Sprintf("%s/step-%d", s.id, s.stepSeq)
}

// Cancel aborts the experiment: the in-flight step fails immediately on the
// master, a cancel RPC for the current job fans out to every worker (so
// their engine queries stop mid-batch), and any future step of this session
// fails fast. Safe to call from any goroutine, more than once.
func (s *Session) Cancel() {
	if s.cancelCh == nil {
		return
	}
	s.cancelOnce.Do(func() { close(s.cancelCh) })
	s.jobMu.Lock()
	job := s.curJob
	s.jobMu.Unlock()
	s.cancelWorkers(job)
}

// Cancelled reports whether Cancel has been called.
func (s *Session) Cancelled() bool {
	if s.cancelCh == nil {
		return false
	}
	select {
	case <-s.cancelCh:
		return true
	default:
		return false
	}
}

// cancelWorkers fans a CancelJob to every session worker that supports it.
func (s *Session) cancelWorkers(jobID string) {
	if jobID == "" {
		return
	}
	for _, w := range s.workers {
		if jc, ok := w.(jobCanceller); ok {
			jc.CancelJob(jobID)
		}
	}
}

// DataQuery builds the SQL for a step's relation input: the requested
// variables from the harmonized data table, filtered to the session
// datasets and an optional extra predicate, with complete-cases semantics
// when dropNA is set.
func (s *Session) DataQuery(vars []string, filter string, dropNA bool) string {
	cols := "*"
	if len(vars) > 0 {
		quoted := make([]string, len(vars))
		for i, v := range vars {
			quoted[i] = quoteIdent(v)
		}
		cols = strings.Join(quoted, ", ")
	}
	var conds []string
	if len(s.datasets) > 0 {
		vals := make([]string, len(s.datasets))
		for i, d := range s.datasets {
			vals[i] = "'" + strings.ReplaceAll(d, "'", "''") + "'"
		}
		conds = append(conds, fmt.Sprintf("dataset IN (%s)", strings.Join(vals, ", ")))
	}
	if dropNA {
		for _, v := range vars {
			conds = append(conds, quoteIdent(v)+" IS NOT NULL")
		}
	}
	if filter != "" {
		conds = append(conds, "("+filter+")")
	}
	sql := fmt.Sprintf("SELECT %s FROM %s", cols, DataTable)
	if len(conds) > 0 {
		sql += " WHERE " + strings.Join(conds, " AND ")
	}
	return sql
}

// quoteIdent delegates to the engine's renderer so the SQL this layer
// generates and the SQL the engine re-renders for pushdown quote
// identically (the engine version additionally quotes reserved keywords).
func quoteIdent(s string) string { return engine.QuoteIdent(s) }

// LocalRunSpec parameterizes a LocalRun round.
type LocalRunSpec struct {
	Func      string
	Vars      []string // variables the step reads (complete cases)
	Filter    string   // extra SQL predicate
	KeepNA    bool     // keep rows with NULLs in Vars
	Kwargs    Kwargs
	DataQuery string // overrides the generated query when set
}

// LocalRun executes a local step on every session worker concurrently and
// returns the per-worker transfers (plain path). This is the
// `self.local_run(..., share_to_global=[True])` call of Figure 2.
func (s *Session) LocalRun(spec LocalRunSpec) ([]Transfer, error) {
	resps, err := s.localRun(spec, nil, s.trace.SpanID)
	if err != nil {
		return nil, err
	}
	out := make([]Transfer, len(resps))
	for i, r := range resps {
		out[i] = r.Transfer
	}
	return out, nil
}

// localRun fans one local step out to every session worker concurrently.
// parentSpan is the trace span the step nests under ("" parents the step
// at the trace root). Each worker round-trip gets its own span; spans the
// worker ships back in the response envelope are grafted into the store.
//
// Failure handling: workers whose circuit breaker is open are skipped
// without a call; failed and straggling workers are dropped when the
// session's Tolerance quorum still holds (plain path only — SMPC needs
// every worker's shares), and the survivors' responses are returned with
// the dropped ids recorded on the session and the step span.
func (s *Session) localRun(spec LocalRunSpec, secureKeys []string, parentSpan string) ([]LocalRunResponse, error) {
	if s.Cancelled() {
		return nil, fmt.Errorf("federation: experiment %s: %w", s.id, engine.ErrQueryCancelled)
	}
	jobID := s.nextJobID()
	s.jobMu.Lock()
	s.curJob = jobID
	s.jobMu.Unlock()
	dq := spec.DataQuery
	if dq == "" {
		dq = s.DataQuery(spec.Vars, spec.Filter, !spec.KeepNA)
	}
	req := LocalRunRequest{
		JobID:         jobID,
		Func:          spec.Func,
		Tenant:        s.tenant,
		Datasets:      s.datasets,
		DataQuery:     dq,
		Kwargs:        spec.Kwargs,
		ShareToGlobal: len(secureKeys) == 0,
		SecureKeys:    secureKeys,
	}
	secure := len(secureKeys) > 0
	step := obs.DefaultTraces.StartSpan(s.trace.TraceID, parentSpan, "localrun "+spec.Func)
	step.SetAttr("job_id", jobID)
	step.SetAttr("workers", strconv.Itoa(len(s.workers)))
	defer step.End()
	fedLocalRuns.Inc()
	start := time.Now()

	type result struct {
		i    int
		resp LocalRunResponse
		err  error
	}
	ch := make(chan result, len(s.workers))
	resps := make([]LocalRunResponse, len(s.workers))
	failed := make([]error, len(s.workers))
	settled := make([]bool, len(s.workers))
	launched := 0
	for i, w := range s.workers {
		if !s.master.allowCall(w.ID()) {
			failed[i] = fmt.Errorf("worker %s: %w", w.ID(), ErrCircuitOpen)
			settled[i] = true
			continue
		}
		launched++
		go func(i int, w WorkerClient) {
			ws := step.StartChild("worker " + w.ID())
			wreq := req
			wreq.Trace = ws.Ref()
			t0 := time.Now()
			r, err := w.LocalRun(wreq)
			workerRoundtrip(w.ID()).Observe(time.Since(t0).Seconds())
			s.master.reportResult(w.ID(), err)
			obs.DefaultTraces.Import(r.Spans)
			if err != nil {
				ws.SetError(err)
				ws.End()
				ch <- result{i: i, err: fmt.Errorf("worker %s: %w", w.ID(), err)}
				return
			}
			ws.SetAttr("rows", strconv.Itoa(r.Rows))
			ws.End()
			ch <- result{i: i, resp: r}
		}(i, w)
	}

	// Collect until every launched worker replied or the straggler deadline
	// fires. Late repliers write to the buffered channel, so their
	// goroutines never leak; their breaker reports still land.
	var deadline <-chan time.Time
	if s.tolerance.StepDeadline > 0 {
		timer := time.NewTimer(s.tolerance.StepDeadline)
		defer timer.Stop()
		deadline = timer.C
	}
	timedOut := false
	cancelled := false
	for received := 0; received < launched && !timedOut && !cancelled; {
		select {
		case r := <-ch:
			received++
			settled[r.i] = true
			if r.err != nil {
				failed[r.i] = r.err
			} else {
				resps[r.i] = r.resp
			}
		case <-deadline:
			timedOut = true
		case <-s.cancelCh:
			// Experiment killed mid-step: fan the cancel to the workers so
			// their in-engine executions stop, then fail the step. Stragglers
			// still drain into the buffered channel — no goroutine leaks.
			cancelled = true
			s.cancelWorkers(jobID)
		}
	}
	if cancelled {
		err := fmt.Errorf("federation: experiment %s: %w", s.id, engine.ErrQueryCancelled)
		step.SetError(err)
		return nil, err
	}
	if timedOut {
		for i, w := range s.workers {
			if !settled[i] {
				failed[i] = fmt.Errorf("worker %s: straggler: no reply within %s", w.ID(), s.tolerance.StepDeadline)
				settled[i] = true
			}
		}
	}
	fedFanoutSeconds.Observe(time.Since(start).Seconds())

	var ok []LocalRunResponse
	var droppedIDs []string
	var errs []error
	for i := range s.workers {
		if failed[i] != nil {
			droppedIDs = append(droppedIDs, s.workers[i].ID())
			errs = append(errs, failed[i])
		} else {
			ok = append(ok, resps[i])
		}
	}
	if len(errs) == 0 {
		return ok, nil
	}
	fedLocalRunErrors.Inc()
	if secure {
		// Full-threshold secure aggregation opens the sum from every
		// worker's shares; a missing worker makes the aggregate
		// unrecoverable, so the secure path never degrades.
		err := fmt.Errorf("federation: secure aggregation requires shares from all %d workers and cannot degrade to a partial result: %w",
			len(s.workers), errors.Join(errs...))
		step.SetError(err)
		return nil, err
	}
	required := s.tolerance.Required(len(s.workers))
	stepLog := obs.WithTrace(masterLog, &obs.TraceRef{TraceID: s.trace.TraceID, SpanID: step.ID()}).With(
		"func", spec.Func, "job_id", jobID)
	if len(ok) < required {
		err := fmt.Errorf("federation: quorum not met: %d of %d workers responded, need %d: %w",
			len(ok), len(s.workers), required, errors.Join(errs...))
		step.SetError(err)
		stepLog.Error("quorum not met",
			"responded", len(ok), "workers", len(s.workers), "required", required)
		return nil, err
	}
	// Degraded success: the surviving quorum's partial aggregate.
	s.recordDropped(droppedIDs)
	fedDegradedSteps.Inc()
	fedDroppedWorkers.Add(int64(len(droppedIDs)))
	step.SetAttr("dropped_workers", strings.Join(droppedIDs, ","))
	stepLog.Warn("degraded step: workers dropped",
		"dropped", strings.Join(droppedIDs, ","), "responded", len(ok))
	return ok, nil
}

// SecureSum runs a local step on every worker, secret-shares the named
// numeric transfer entries into the SMPC cluster, and returns their secure
// sum (with the master's configured noise applied in-protocol). This is
// the paper's crown-jewel path: the master only ever sees the aggregate.
func (s *Session) SecureSum(spec LocalRunSpec, keys ...string) (Transfer, error) {
	if s.master.smpc == nil || !s.master.security.UseSMPC {
		return nil, fmt.Errorf("federation: session has no SMPC cluster")
	}
	return s.aggregate(spec, smpc.OpSum, keys)
}

// AggregateSum sums the named numeric entries across plain transfers —
// the non-secure equivalent of SecureSum, used when the deployment handles
// non-sensitive data.
func AggregateSum(transfers []Transfer, keys ...string) (Transfer, error) {
	if len(transfers) == 0 {
		return nil, fmt.Errorf("federation: no transfers to aggregate")
	}
	var total []float64
	var shapes map[string][]int
	for i, t := range transfers {
		flat, sh, err := flattenNumeric(t, keys)
		if err != nil {
			return nil, fmt.Errorf("federation: transfer %d: %w", i, err)
		}
		if total == nil {
			total = flat
			shapes = sh
			continue
		}
		if !shapesEqual(shapes, sh) || len(flat) != len(total) {
			return nil, fmt.Errorf("federation: transfer %d has inconsistent shapes", i)
		}
		for j := range total {
			total[j] += flat[j]
		}
	}
	return unflattenNumeric(total, shapes)
}

// Sum runs a local step and aggregates the named keys through the
// configured path (SMPC when the master is secure, plain otherwise): the
// one-call form used by most algorithm flows.
func (s *Session) Sum(spec LocalRunSpec, keys ...string) (Transfer, error) {
	return s.aggregate(spec, smpc.OpSum, keys)
}

// Min runs a local step and takes the element-wise minimum of the named
// keys across workers.
func (s *Session) Min(spec LocalRunSpec, keys ...string) (Transfer, error) {
	return s.aggregate(spec, smpc.OpMin, keys)
}

// Max runs a local step and takes the element-wise maximum of the named
// keys across workers.
func (s *Session) Max(spec LocalRunSpec, keys ...string) (Transfer, error) {
	return s.aggregate(spec, smpc.OpMax, keys)
}

func (s *Session) aggregate(spec LocalRunSpec, op smpc.Op, keys []string) (Transfer, error) {
	if s.master.security.UseSMPC {
		iter := obs.DefaultTraces.StartSpan(s.trace.TraceID, s.trace.SpanID, "aggregate "+op.String()+" "+spec.Func)
		defer iter.End()
		resps, err := s.localRun(spec, keys, iter.ID())
		if err != nil {
			iter.SetError(err)
			return nil, err
		}
		shapes := resps[0].Shapes
		for _, r := range resps[1:] {
			if !shapesEqual(shapes, r.Shapes) {
				return nil, fmt.Errorf("federation: workers reported inconsistent secure shapes")
			}
		}
		stepJob := fmt.Sprintf("%s/step-%d", s.id, s.stepSeq)
		noise := smpc.Noise{}
		if op == smpc.OpSum {
			noise = s.master.security.Noise
		}
		round := iter.StartChild("smpc " + op.String())
		round.SetAttr("workers", strconv.Itoa(len(resps)))
		flat, err := s.master.smpc.Aggregate(stepJob, op, noise)
		round.SetError(err)
		round.End()
		if err != nil {
			iter.SetError(err)
			return nil, err
		}
		return unflattenNumeric(flat, shapes)
	}
	transfers, err := s.LocalRun(spec)
	if err != nil {
		return nil, err
	}
	return aggregateFold(transfers, op, keys)
}

// aggregateFold combines plain transfers element-wise with the given op.
func aggregateFold(transfers []Transfer, op smpc.Op, keys []string) (Transfer, error) {
	if len(transfers) == 0 {
		return nil, fmt.Errorf("federation: no transfers to aggregate")
	}
	var total []float64
	var shapes map[string][]int
	for i, t := range transfers {
		flat, sh, err := flattenNumeric(t, keys)
		if err != nil {
			return nil, fmt.Errorf("federation: transfer %d: %w", i, err)
		}
		if total == nil {
			total = flat
			shapes = sh
			continue
		}
		if !shapesEqual(shapes, sh) || len(flat) != len(total) {
			return nil, fmt.Errorf("federation: transfer %d has inconsistent shapes", i)
		}
		for j := range total {
			switch op {
			case smpc.OpSum:
				total[j] += flat[j]
			case smpc.OpMin:
				if flat[j] < total[j] {
					total[j] = flat[j]
				}
			case smpc.OpMax:
				if flat[j] > total[j] {
					total[j] = flat[j]
				}
			default:
				return nil, fmt.Errorf("federation: unsupported plain aggregation %v", op)
			}
		}
	}
	return unflattenNumeric(total, shapes)
}

// SecureUnion runs a local step and takes the secure disjoint union of the
// named vector entry across workers (e.g. distinct event times for
// Kaplan-Meier).
func (s *Session) SecureUnion(spec LocalRunSpec, key string) ([]float64, error) {
	if !s.master.security.UseSMPC {
		transfers, err := s.LocalRun(spec)
		if err != nil {
			return nil, err
		}
		seen := map[float64]struct{}{}
		for _, t := range transfers {
			vs, err := t.Floats(key)
			if err != nil {
				return nil, err
			}
			for _, v := range vs {
				seen[v] = struct{}{}
			}
		}
		out := make([]float64, 0, len(seen))
		for v := range seen {
			out = append(out, v)
		}
		sort.Float64s(out)
		return out, nil
	}
	// Secure path: workers import the vector under the step job id; union
	// opens the merged set.
	if _, err := s.localRun(spec, []string{key}, s.trace.SpanID); err != nil {
		return nil, err
	}
	stepJob := fmt.Sprintf("%s/step-%d", s.id, s.stepSeq)
	round := obs.DefaultTraces.StartSpan(s.trace.TraceID, s.trace.SpanID, "smpc union")
	defer round.End()
	return s.master.smpc.Aggregate(stepJob, smpc.OpUnion, smpc.Noise{})
}

// GlobalRun executes a registered global step on the master (Figure 2's
// `self.global_run`).
func (s *Session) GlobalRun(fn string, localTransfers []Transfer, kwargs Kwargs) (Transfer, error) {
	g := DefaultRegistry.Global(fn)
	if g == nil {
		return nil, fmt.Errorf("federation: no global func %q", fn)
	}
	out, newState, err := g(s.GlobalState, localTransfers, kwargs)
	if err != nil {
		return nil, err
	}
	s.GlobalState = newState
	return out, nil
}
