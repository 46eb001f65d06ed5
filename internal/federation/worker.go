package federation

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mip/internal/engine"
	"mip/internal/obs"
	"mip/internal/smpc"
)

// DataTable is the canonical name of the harmonized primary-data table each
// worker hosts (variables as columns plus a "dataset" column).
const DataTable = "data"

// DefaultMinRows is the disclosure-control threshold: a local step whose
// input selects fewer than this many rows (but more than zero) may not ship
// transfers off the worker.
const DefaultMinRows = 10

// LocalRunRequest asks a worker to execute one local computation step.
type LocalRunRequest struct {
	JobID string
	// Func names the registered local step.
	Func string
	// DataQuery is the SQL producing the step's relation input (generated
	// by the master from the experiment's variables/datasets/filter).
	DataQuery string
	// Kwargs are the step's keyword arguments.
	Kwargs Kwargs
	// Secure secret-shares every transfer entry into the SMPC cluster, the
	// keys of each op under JobID/<op>, instead of returning them; only
	// their shapes and ops leave the worker. Otherwise the transfer ships
	// back to the master (plain path).
	Secure bool
	// Tenant and Datasets attribute the step for metering and audit: the
	// worker tags its engine statements with them, so per-hospital access
	// records name the owning tenant and the datasets touched.
	Tenant   string
	Datasets []string
	// Trace carries the master's trace context so worker-side spans nest
	// under the per-worker round-trip span; nil disables tracing.
	Trace *obs.TraceRef
	// Session declares the experiment session the step belongs to: the
	// worker resolves each distinct DataQuery of a session once, at the
	// catalog version the session pinned on this worker, and later steps
	// read that relation. Nil reads the current version (a one-off step).
	Session *SessionRef
	// Release names sessions the master closed since its last request to
	// this worker; the worker drops their pins before running the step.
	Release []string
}

// SessionRef names a step's session on the wire.
type SessionRef struct {
	ID string
	// Open marks a step sent before this worker has answered the session:
	// the worker pins its current catalog version unless it already holds
	// the session's pin. A step without Open must find the pin.
	Open bool
}

// PinLostError fails a step of a session whose pin the worker no longer
// holds (evicted, or the worker restarted). The step never falls back to
// the current catalog, which would mix two versions in one experiment.
type PinLostError struct {
	Worker, Session string
}

func (e *PinLostError) Error() string {
	return fmt.Sprintf("federation: worker %s no longer holds the pin of session %s (evicted or restarted)", e.Worker, e.Session)
}

// LocalRunResponse carries the step's outputs.
type LocalRunResponse struct {
	// WorkerID identifies the responding worker.
	WorkerID string
	// Transfer holds the step's tensors on the plain path. On the secure
	// path it holds every key with its shape and op only: the values went
	// into the SMPC cluster, and the shapes and ops let the master check the
	// workers agree and slice each opened group.
	Transfer Transfer
	// Rows is the number of input rows the step consumed (not shipped in
	// privacy-sensitive deployments; used by tests and the leakage audit).
	Rows int
	// Spans are the worker-side trace spans of this step, shipped back in
	// the envelope so the master grafts them into the experiment tree.
	// Spans carry timings and row counts only — never data values.
	Spans []obs.SpanData
}

// Worker is one hospital node: the local data engine, the installed
// algorithm library, and the enforcement point of the platform's privacy
// boundary.
type Worker struct {
	id       string
	db       *engine.DB
	funcs    *FuncRegistry
	smpc     *smpc.Cluster // the decoupled SMPC cluster (nil = plain only)
	minRows  int
	mu       sync.Mutex
	jobs     map[string]*jobEntry // JobID → dedupe record (replayed /localrun)
	jobOrder []string             // FIFO eviction order for jobs
	pins     map[string]*sessionPin
	pinTick  uint64 // advances on every pin use; orders LRU eviction

	// bootID is restart-unique and prefixes every version stamp the
	// master's result cache keys on, so versions from a previous process
	// never validate a stale entry.
	bootID string
}

// jobDedupeCap bounds the replay-dedupe cache; the oldest job records are
// evicted first. 256 comfortably covers the retry window of live steps.
const jobDedupeCap = 256

// pinCap bounds the session pin table; the least recently used pin is
// evicted first, and a later step of its session fails with PinLostError.
const pinCap = 64

// sessionPin is one session's view of this worker: the catalog version its
// first step read, and each distinct data query resolved once at it.
type sessionPin struct {
	snap *engine.Snapshot
	used uint64     // pinTick of the last use, under Worker.mu
	mu   sync.Mutex // serialises resolving rels
	rels map[string]*engine.Table
}

// jobEntry records one step execution so replays of the same JobID (from
// the master's retry layer) return the original result instead of running
// the step — and, on the secure path, re-importing shares — twice.
type jobEntry struct {
	done   chan struct{} // closed when resp/err are final
	cancel context.CancelCauseFunc
	resp   LocalRunResponse
	err    error
}

// WorkerOption configures a Worker.
type WorkerOption func(*Worker)

// WithSMPC connects the worker to an SMPC cluster for secure importation.
func WithSMPC(c *smpc.Cluster) WorkerOption {
	return func(w *Worker) { w.smpc = c }
}

// WithMinRows overrides the disclosure-control threshold.
func WithMinRows(n int) WorkerOption {
	return func(w *Worker) { w.minRows = n }
}

// WithFuncs overrides the algorithm library (default: DefaultRegistry).
func WithFuncs(r *FuncRegistry) WorkerOption {
	return func(w *Worker) { w.funcs = r }
}

// NewWorker creates a worker over the given engine database. The database
// should contain the harmonized DataTable.
func NewWorker(id string, db *engine.DB, opts ...WorkerOption) *Worker {
	w := &Worker{
		id:      id,
		db:      db,
		funcs:   DefaultRegistry,
		minRows: DefaultMinRows,
		jobs:    make(map[string]*jobEntry),
		pins:    make(map[string]*sessionPin),
		bootID:  randHex(8),
	}
	for _, o := range opts {
		o(w)
	}
	return w
}

// randHex mints a short random identifier (worker boot ids).
func randHex(n int) string {
	b := make([]byte, n)
	rand.Read(b)
	return hex.EncodeToString(b)
}

// ID implements WorkerClient.
func (w *Worker) ID() string { return w.id }

// DB exposes the worker's engine (tests, ETL).
func (w *Worker) DB() *engine.DB { return w.db }

// DatasetInfo is a worker's snapshot: the datasets it hosts (the master's
// availability) and their version stamps (the result cache's key), taken at
// one catalog version. It is the /datasets wire shape.
type DatasetInfo struct {
	Datasets []string          `json:"datasets"`
	Versions map[string]uint64 `json:"versions,omitempty"`
	// Boot is the worker instance id (restart-unique).
	Boot string `json:"boot,omitempty"`
	// Stamp is the cheap change probe: Boot + ":" + the engine data version
	// this snapshot was taken at. While a later DataStamp equals it, every
	// version in Versions is still current.
	Stamp string `json:"stamp,omitempty"`
}

// DatasetInfo implements WorkerClient: availability plus current
// per-dataset versions, all read from one engine catalog version. A
// dataset's version is the engine's stamp for it, which moves exactly when
// a write adds or removes rows of that dataset.
func (w *Worker) DatasetInfo() (DatasetInfo, error) {
	ver, vers := w.db.DatasetVersions(DataTable)
	info := DatasetInfo{Versions: vers, Boot: w.bootID, Stamp: w.bootID + ":" + strconv.FormatUint(ver, 10)}
	for ds := range vers {
		info.Datasets = append(info.Datasets, ds)
	}
	sort.Strings(info.Datasets)
	return info, nil
}

// DataStamp implements WorkerClient: the cheap change probe, the engine's
// data version. If it still equals the Stamp of an earlier DatasetInfo, no
// data on this worker has changed since that snapshot.
func (w *Worker) DataStamp() (string, error) {
	return w.bootID + ":" + strconv.FormatUint(w.db.DataVersion(), 10), nil
}

// QueryCtx implements WorkerClient: the remote-table path (non-sensitive
// deployments only; production MIP disables raw remote queries).
// Cancelling ctx aborts the engine execution at the next batch boundary,
// so a master-side kill reaches the worker's engine.
func (w *Worker) QueryCtx(ctx context.Context, sql string) (*engine.Table, error) {
	return w.db.QueryCtx(ctx, sql)
}

// CancelJob implements WorkerClient: it aborts a step that is still
// executing under the given JobID. Returns true if a live job was found and
// its cancellation triggered. The
// dedupe entry is cleared once the step unwinds, so a later replay of the
// same JobID re-executes instead of returning the cancelled error forever.
func (w *Worker) CancelJob(jobID string) bool {
	w.mu.Lock()
	e, ok := w.jobs[jobID]
	w.mu.Unlock()
	if !ok || e.cancel == nil {
		return false
	}
	select {
	case <-e.done:
		return false // already finished; nothing to cancel
	default:
	}
	e.cancel(engine.ErrQueryCancelled)
	return true
}

// LocalRun implements WorkerClient: evaluates the step's relation once,
// applies disclosure control to it, calls the step over it, and ships the
// result one way — the transfer on the plain path, secret shares on the
// secure path. When the request carries a trace context the worker records
// an execution span (with engine query stats) and ships it back in the
// response envelope.
//
// Calls are deduplicated by JobID: a replay of an already-completed step
// (the master retries transient transport failures) returns the cached
// response, and a replay racing the still-running original waits for it
// instead of executing twice. This is what makes /localrun idempotent —
// critical on the secure path, where re-running a step would import its
// secret shares into the SMPC cluster a second time.
func (w *Worker) LocalRun(req LocalRunRequest) (LocalRunResponse, error) {
	return w.LocalRunCtx(context.Background(), req)
}

// LocalRunCtx is LocalRun scoped by a caller context. Cancelling the context
// — or calling CancelJob with the step's JobID — aborts the in-engine
// execution at the next batch boundary, so a master-side experiment kill
// stops workers mid-step.
func (w *Worker) LocalRunCtx(ctx context.Context, req LocalRunRequest) (LocalRunResponse, error) {
	if len(req.Release) > 0 {
		w.mu.Lock()
		for _, id := range req.Release {
			delete(w.pins, id)
		}
		w.mu.Unlock()
	}
	if req.JobID == "" {
		return w.runStep(ctx, req)
	}
	for {
		w.mu.Lock()
		e, ok := w.jobs[req.JobID]
		if !ok {
			jctx, jcancel := context.WithCancelCause(ctx)
			e = &jobEntry{done: make(chan struct{}), cancel: jcancel}
			w.jobs[req.JobID] = e
			w.jobOrder = append(w.jobOrder, req.JobID)
			for len(w.jobOrder) > jobDedupeCap {
				delete(w.jobs, w.jobOrder[0])
				w.jobOrder = w.jobOrder[1:]
			}
			w.mu.Unlock()
			e.resp, e.err = w.runStep(jctx, req)
			jcancel(nil)
			close(e.done)
			return e.resp, e.err
		}
		w.mu.Unlock()
		<-e.done
		if e.err == nil {
			fedReplaysDeduped.Inc()
			return e.resp, nil
		}
		// The recorded attempt failed; clear it (unless a concurrent replay
		// already did) and re-execute.
		w.mu.Lock()
		if w.jobs[req.JobID] == e {
			delete(w.jobs, req.JobID)
		}
		w.mu.Unlock()
	}
}

var workerLog = obs.Logger("worker")

// runStep executes one local step unconditionally (no dedupe).
func (w *Worker) runStep(ctx context.Context, req LocalRunRequest) (LocalRunResponse, error) {
	fedWorkerRuns.Inc()
	span := obs.DefaultTraces.StartSpanRef(req.Trace, "exec "+req.Func)
	span.SetAttr("worker", w.id)
	start := time.Now()
	resp, err := w.doLocalRun(ctx, req, span)
	span.SetError(err)
	span.End()
	if span != nil {
		resp.Spans = append(resp.Spans, span.Data())
	}
	l := obs.WithTrace(workerLog, req.Trace).With(
		"worker", w.id, "func", req.Func, "job_id", req.JobID)
	if err != nil {
		l.Warn("local step failed", "seconds", time.Since(start).Seconds(), "err", err.Error())
	} else {
		l.Debug("local step done", "seconds", time.Since(start).Seconds(), "rows", resp.Rows)
	}
	return resp, err
}

// doLocalRun is one step as a straight line: resolve the relation once,
// disclosure control on its row count, the step body over it, then ship.
func (w *Worker) doLocalRun(ctx context.Context, req LocalRunRequest, span *obs.Span) (LocalRunResponse, error) {
	resp := LocalRunResponse{WorkerID: w.id}
	if ctx == nil {
		ctx = context.Background()
	}
	// Attribute engine queries of this step: the active-query registry
	// shows which experiment step (and tenant) a worker-side query belongs
	// to, and the tenant meter and audit trail record the access.
	if req.JobID != "" || req.Tenant != "" {
		ctx = engine.WithQueryAttribution(ctx, engine.Attribution{
			Tenant:   req.Tenant,
			Job:      req.JobID,
			Datasets: req.Datasets,
		})
	}
	fn := w.funcs.Local(req.Func)
	if fn == nil {
		return resp, fmt.Errorf("federation: worker %s has no local func %q", w.id, req.Func)
	}

	data, err := w.relation(ctx, req, span, &resp)
	if err != nil {
		return resp, err
	}

	// Disclosure control counts exactly the rows the body would see, and
	// refuses before the body runs.
	resp.Rows = data.NumRows()
	if resp.Rows > 0 && resp.Rows < w.minRows {
		fedDisclosureBlocks.Inc()
		return resp, fmt.Errorf("federation: worker %s: disclosure control: %d rows < minimum %d", w.id, resp.Rows, w.minRows)
	}

	udfSpan := span.StartChild("udf fed_" + req.Func)
	transfer, err := w.callStep(ctx, req.Func, fn, data, req.Kwargs)
	udfSpan.SetError(err)
	udfSpan.End()
	if udfSpan != nil {
		resp.Spans = append(resp.Spans, udfSpan.Data())
	}
	if err != nil {
		return resp, err
	}

	if !req.Secure {
		if err := w.checkFinite(req.Func, transfer); err != nil {
			return resp, err
		}
		resp.Transfer = transfer
		return resp, nil
	}
	if w.smpc == nil {
		return resp, fmt.Errorf("federation: worker %s has no SMPC cluster attached", w.id)
	}
	groups, err := groupKeys([]Transfer{transfer})
	if err != nil {
		return resp, err
	}
	// Each op's keys, their data concatenated in sorted key order, are one
	// SMPC job; the answer carries every key's shape and op only.
	resp.Transfer = make(Transfer, len(transfer))
	t0 := time.Now()
	elems := 0
	for op, keys := range groups {
		var flat []float64
		for _, k := range keys {
			t := transfer[k]
			flat = append(flat, t.Data...)
			resp.Transfer[k] = Tensor{Shape: t.Shape, Op: op}
		}
		elems += len(flat)
		if err := w.smpc.ImportSecret(groupJob(req.JobID, op), w.id, flat); err != nil {
			return resp, err
		}
	}
	// Attributes, not a child span: the exec span's self time is what tells
	// the import apart from the relation query and the step body.
	span.SetAttr("smpc_import_ms", strconv.FormatFloat(time.Since(t0).Seconds()*1e3, 'f', 3, 64))
	span.SetAttr("smpc_import_elems", strconv.Itoa(elems))
	return resp, nil
}

// relation resolves the step's input. A session step reads its pin: the
// session's first use of a data query runs it at the pinned catalog version
// and keeps the table, and every later use reads it with no statement,
// leaving one accounted record with verdict "pinned" in its place. A step
// without a session runs its data query at the current version.
func (w *Worker) relation(ctx context.Context, req LocalRunRequest, span *obs.Span, resp *LocalRunResponse) (*engine.Table, error) {
	query := w.db.QueryWithStatsCtx
	var p *sessionPin
	if req.Session != nil {
		var err error
		if p, err = w.pin(*req.Session); err != nil {
			return nil, err
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		if t := p.rels[req.DataQuery]; t != nil {
			span.SetAttr("relation", "pinned")
			obs.Emit(&obs.QueryRecord{
				Kind: obs.KindQuery, SQL: req.DataQuery, Tenant: req.Tenant, Job: req.JobID,
				Datasets: req.Datasets, Start: time.Now(), Verdict: "pinned", RowsOut: t.NumRows(),
			}, nil, true)
			return t, nil
		}
		query = p.snap.QueryWithStatsCtx
	}
	// When tracing, the engine's stats land on a child span with the
	// measured operator tree grafted under it, so the master's experiment
	// trace shows this worker's per-operator breakdown. Spans carry shapes
	// and timings only — never values.
	qspan := span.StartChild("engine query")
	data, qs, err := query(ctx, req.DataQuery)
	if qspan != nil {
		for k, v := range qs.Attrs() {
			qspan.SetAttr(k, v)
		}
		qspan.SetError(err)
		qspan.End()
		d := qspan.Data()
		resp.Spans = append(resp.Spans, d)
		planSpans(d.TraceID, d.SpanID, d.Start, qs.Root, &resp.Spans)
	}
	if err != nil {
		return nil, err
	}
	if p != nil {
		p.rels[req.DataQuery] = data
	}
	return data, nil
}

// pin returns the session's pin, taking one at the current catalog version
// when ref opens the session on this worker and it holds none.
func (w *Worker) pin(ref SessionRef) (*sessionPin, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	p := w.pins[ref.ID]
	if p == nil {
		if !ref.Open {
			return nil, &PinLostError{Worker: w.id, Session: ref.ID}
		}
		if len(w.pins) >= pinCap {
			lru := ""
			for id, q := range w.pins {
				if lru == "" || q.used < w.pins[lru].used {
					lru = id
				}
			}
			delete(w.pins, lru)
		}
		p = &sessionPin{snap: w.db.Snapshot(), rels: map[string]*engine.Table{}}
		w.pins[ref.ID] = p
	}
	w.pinTick++
	p.used = w.pinTick
	return p, nil
}

// checkFinite rejects a plain transfer holding NaN or ±Inf before it
// ships: such a value poisons the master's fold, and the SMPC import
// refuses it, so plain and secure fail alike. Keys are checked in sorted
// order, so every transport names the same element.
func (w *Worker) checkFinite(step string, t Transfer) error {
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for i, x := range t[k].Data {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("federation: worker %s: step %s: transfer %q[%d] is %v; non-finite values cannot leave a worker", w.id, step, k, i, x)
			}
		}
	}
	return nil
}

// callStep calls step name's body over its relation and kwargs: the UDF
// fed_<name> that GenerateStepSQL renders. ctx scopes the body's loopback
// queries. A body error reads "udf fed_<name>: …"; a body that panics fails
// its step with an error naming the worker, the step and the panic value,
// and its stack goes to the log, so the worker and any replay of the job
// carry on.
func (w *Worker) callStep(ctx context.Context, name string, fn LocalFunc, data *engine.Table, kwargs Kwargs) (tr Transfer, err error) {
	defer func() {
		if p := recover(); p != nil {
			workerLog.Error("local step panicked", "worker", w.id, "func", name, "panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			tr, err = nil, fmt.Errorf("udf fed_%s: worker %s: step panicked: %v", name, w.id, p)
		}
	}()
	tr, err = fn(&WorkerCtx{WorkerID: w.id, db: w.db, ctx: ctx}, data, kwargs)
	if err != nil {
		return nil, fmt.Errorf("udf fed_%s: %w", name, err)
	}
	return tr, nil
}

// planSpans synthesizes one trace span per plan operator, nesting like the
// plan tree (an operator's inputs become its child spans). Absolute operator
// start times are not tracked, so every span starts at the query start and
// its duration carries the operator's measured wall time.
func planSpans(traceID, parentID string, start time.Time, n *engine.PlanNode, out *[]obs.SpanData) {
	if n == nil {
		return
	}
	name := "op " + n.Op
	if n.Detail != "" {
		name += " " + n.Detail
	}
	if len(name) > 80 {
		name = name[:77] + "..."
	}
	id := obs.NewSpanID()
	*out = append(*out, obs.SpanData{
		TraceID: traceID,
		SpanID:  id,
		Parent:  parentID,
		Name:    name,
		Start:   start,
		End:     start.Add(time.Duration(n.Nanos)),
		Attrs:   n.Attrs(),
	})
	for _, c := range n.Children {
		planSpans(traceID, id, start, c, out)
	}
}

// GenerateStepSQL renders the SQL UDF wrapper a registered step stands for,
// mirroring the paper's UDF-to-SQL translation: fed_<func> takes the step's
// relation and kwargs and returns its transfer. The worker runs the step by
// calling its Go body directly; the text documents that call.
func (w *Worker) GenerateStepSQL(funcName, dataQuery string) (string, error) {
	if w.funcs.Local(funcName) == nil {
		return "", fmt.Errorf("federation: worker %s has no local func %q", w.id, funcName)
	}
	src := strings.TrimSpace(dataQuery)
	if src == "" {
		src = DataTable
	} else {
		src = "(" + src + ")"
	}
	return fmt.Sprintf("CREATE OR REPLACE FUNCTION fed_%[1]s(data TABLE(*), kwargs JSON)\n"+
		"RETURNS TABLE(transfer JSON)\n"+
		"LANGUAGE NATIVE -- JIT-generated wrapper\n"+
		"{ body: fed_%[1]s };\n"+
		"SELECT * FROM fed_%[1]s(%[2]s, kwargs);", funcName, src), nil
}
