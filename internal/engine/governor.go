package engine

// Query governance: the lifecycle layer that makes a *running* statement
// observable and controllable. Every statement executed through DB.Query /
// QueryWithStatsCtx registers itself in the process-wide Queries registry
// (id, SQL, tenant, start time, live rows/bytes, current operator), charges
// coarse per-operator allocations against a MemAccountant, and runs under a
// cancellation context. Cancellation — explicit (Queries.Cancel, the REST
// DELETE /queries/{id}), deadline, or memory ceiling — propagates through
// ExecContext into the morsel loops, which abort at batch boundaries. The
// final verdict (completed/cancelled/deadline/mem-limit/error) lands on the
// statement's record (QueryStats.emit), from which every sink reads it.

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mip/internal/obs"
)

// Terminal causes a governed query can be cancelled with. They surface as
// the query's error and classify its verdict.
var (
	// ErrQueryCancelled is the cause installed by Queries.Cancel (operator-
	// initiated kill) and by federation job cancellation.
	ErrQueryCancelled = errors.New("engine: query cancelled")
	// ErrQueryDeadline is the cause installed when a per-query deadline
	// (WithQueryDeadline / mipd -query-deadline) expires.
	ErrQueryDeadline = errors.New("engine: query deadline exceeded")
	// ErrQueryMemLimit is the cause installed when accounted live bytes
	// cross the per-query ceiling (WithQueryMemLimit / -query-mem-limit).
	ErrQueryMemLimit = errors.New("engine: query memory limit exceeded")
)

// Verdicts an engine statement's record can carry.
const (
	VerdictCompleted = "completed"
	VerdictCancelled = "cancelled"
	VerdictDeadline  = "deadline"
	VerdictMemLimit  = "mem-limit"
	VerdictError     = "error"
)

// verdictFor classifies how a statement ended from its error.
func verdictFor(err error) string {
	switch {
	case err == nil:
		return VerdictCompleted
	case errors.Is(err, ErrQueryMemLimit):
		return VerdictMemLimit
	case errors.Is(err, ErrQueryDeadline), errors.Is(err, context.DeadlineExceeded):
		return VerdictDeadline
	case errors.Is(err, ErrQueryCancelled), errors.Is(err, context.Canceled):
		return VerdictCancelled
	default:
		return VerdictError
	}
}

// MemAccountant tracks one query's accounted engine memory. Operators
// charge coarse allocation sites (materialized stage outputs, hash-table
// and CSR payloads, partial-aggregate states, merge concatenation) — one
// atomic add per operator or morsel, never per row, so accounting overhead
// stays in the noise. A nil accountant is a no-op on every method.
type MemAccountant struct {
	live     atomic.Int64
	peak     atomic.Int64
	limit    int64  // 0 = unlimited
	onExceed func() // fired once, when live first crosses limit
	fired    atomic.Bool
}

// Charge adds n live bytes, updates the peak, and trips the ceiling
// callback the first time live exceeds the limit.
func (a *MemAccountant) Charge(n int64) {
	if a == nil || n <= 0 {
		return
	}
	live := a.live.Add(n)
	for {
		p := a.peak.Load()
		if live <= p || a.peak.CompareAndSwap(p, live) {
			break
		}
	}
	if a.limit > 0 && live > a.limit && a.onExceed != nil && a.fired.CompareAndSwap(false, true) {
		a.onExceed()
	}
}

// Release returns n bytes (a freed transient structure: join build index,
// partial-aggregate states after the combine).
func (a *MemAccountant) Release(n int64) {
	if a == nil || n <= 0 {
		return
	}
	a.live.Add(-n)
}

// Live returns the currently accounted bytes.
func (a *MemAccountant) Live() int64 {
	if a == nil {
		return 0
	}
	return a.live.Load()
}

// Peak returns the high-water mark of accounted bytes.
func (a *MemAccountant) Peak() int64 {
	if a == nil {
		return 0
	}
	return a.peak.Load()
}

// OverLimit reports whether accounted live bytes currently exceed the
// limit. Spill-enabled operators poll this at morsel boundaries and shed
// state to disk instead of waiting for the hard-cancel callback (which is
// not installed when spilling is on).
func (a *MemAccountant) OverLimit() bool {
	if a == nil {
		return false
	}
	return a.limit > 0 && a.live.Load() > a.limit
}

// Limit returns the configured budget (0 = unlimited).
func (a *MemAccountant) Limit() int64 {
	if a == nil {
		return 0
	}
	return a.limit
}

// queryHandle is one live statement's registry record. Exec goroutines
// update only its atomics (rows, current operator) so List never races
// execution under -race.
type queryHandle struct {
	info   QueryInfo // the fields fixed at registration; List fills in the rest
	cancel context.CancelCauseFunc
	acct   *MemAccountant
	rows   atomic.Int64
	op     atomic.Pointer[string]
	// spillBytes/spillParts tally run-file bytes written and partitions
	// spilled so far; the live view (mipctl top) and the statement's record
	// both read them.
	spillBytes atomic.Int64
	spillParts atomic.Int64
}

// setOp records the operator the query is currently executing.
func (h *queryHandle) setOp(op string) {
	if h == nil {
		return
	}
	h.op.Store(&op)
}

// addRows tallies input rows consumed so far (live progress, not output).
func (h *queryHandle) addRows(n int64) {
	if h == nil {
		return
	}
	h.rows.Add(n)
}

// QueryInfo is a JSON-safe snapshot of one active query, as served by
// GET /queries/active and rendered by `mipctl top`.
type QueryInfo struct {
	ID         int64     `json:"id"`
	SQL        string    `json:"sql"`
	Tenant     string    `json:"tenant,omitempty"`
	Job        string    `json:"job,omitempty"`
	Datasets   []string  `json:"datasets,omitempty"`
	Start      time.Time `json:"start"`
	Seconds    float64   `json:"seconds"`
	Rows       int64     `json:"rows"`
	LiveBytes  int64     `json:"live_bytes"`
	PeakBytes  int64     `json:"peak_bytes"`
	SpillBytes int64     `json:"spill_bytes,omitempty"`
	Operator   string    `json:"operator,omitempty"`
}

// QueryRegistry tracks every statement currently executing in the process
// (master merge queries and worker local steps alike, in the in-process
// topology). All methods are safe for concurrent use.
type QueryRegistry struct {
	mu     sync.Mutex
	seq    int64
	active map[int64]*queryHandle
}

// Queries is the process-wide active-query registry.
var Queries = &QueryRegistry{active: make(map[int64]*queryHandle)}

// register enrolls the statement behind rec and stamps the record with
// its registry id.
func (r *QueryRegistry) register(rec *obs.QueryRecord, cancel context.CancelCauseFunc, acct *MemAccountant) *queryHandle {
	h := &queryHandle{cancel: cancel, acct: acct, info: QueryInfo{
		SQL: rec.SQL, Tenant: rec.Tenant, Job: rec.Job, Datasets: rec.Datasets, Start: rec.Start,
	}}
	r.mu.Lock()
	r.seq++
	h.info.ID = r.seq
	r.active[r.seq] = h
	r.mu.Unlock()
	rec.ID = strconv.FormatInt(h.info.ID, 10)
	return h
}

func (r *QueryRegistry) finish(h *queryHandle) {
	if h == nil {
		return
	}
	r.mu.Lock()
	delete(r.active, h.info.ID)
	r.mu.Unlock()
}

// handles snapshots the live handles.
func (r *QueryRegistry) handles() []*queryHandle {
	r.mu.Lock()
	defer r.mu.Unlock()
	hs := make([]*queryHandle, 0, len(r.active))
	for _, h := range r.active {
		hs = append(hs, h)
	}
	return hs
}

// List snapshots the active queries, ordered by id (oldest first).
func (r *QueryRegistry) List() []QueryInfo {
	hs := r.handles()
	sort.Slice(hs, func(i, j int) bool { return hs[i].info.ID < hs[j].info.ID })
	now := time.Now()
	out := make([]QueryInfo, len(hs))
	for i, h := range hs {
		info := h.info
		info.Seconds = now.Sub(info.Start).Seconds()
		info.Rows = h.rows.Load()
		info.LiveBytes = h.acct.Live()
		info.PeakBytes = h.acct.Peak()
		info.SpillBytes = h.spillBytes.Load()
		if op := h.op.Load(); op != nil {
			info.Operator = *op
		}
		out[i] = info
	}
	return out
}

// Cancel kills the identified query (cause: ErrQueryCancelled). It reports
// false when no such query is active — already finished, or never existed.
func (r *QueryRegistry) Cancel(id int64) bool {
	r.mu.Lock()
	h := r.active[id]
	r.mu.Unlock()
	if h == nil || h.cancel == nil {
		return false
	}
	h.cancel(ErrQueryCancelled)
	return true
}

// Active returns the number of currently executing queries.
func (r *QueryRegistry) Active() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.active)
}

// LiveBytes sums accounted live bytes across active queries (the
// mip_engine_query_mem_bytes gauge).
func (r *QueryRegistry) LiveBytes() int64 {
	var total int64
	for _, h := range r.handles() {
		total += h.acct.Live()
	}
	return total
}

func init() {
	obs.Default.GaugeFunc("mip_engine_query_mem_bytes",
		"Accounted live memory across active queries, bytes.",
		func() float64 { return float64(Queries.LiveBytes()) })
	obs.Default.GaugeFunc("mip_engine_queries_active",
		"Number of currently executing statements.",
		func() float64 { return float64(Queries.Active()) })
}

// Attribution identifies who a statement runs for: the tenant that owns
// the work, the federation job (experiment) it belongs to, and the
// datasets it touches. It rides the context from the API / federation
// layer into the governor, where it lands on the statement's record and
// the active-query registry.
type Attribution struct {
	Tenant   string
	Job      string
	Datasets []string
}

// attrKey carries the Attribution a query registers under.
type attrKey struct{}

// WithQueryAttribution tags ctx with full attribution; statements run
// under it are metered and audited against the tenant.
func WithQueryAttribution(ctx context.Context, a Attribution) context.Context {
	return context.WithValue(ctx, attrKey{}, a)
}

func queryAttribution(ctx context.Context) Attribution {
	if ctx == nil {
		return Attribution{}
	}
	a, _ := ctx.Value(attrKey{}).(Attribution)
	return a
}
