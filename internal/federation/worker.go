package federation

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"mip/internal/engine"
	"mip/internal/obs"
	"mip/internal/smpc"
	"mip/internal/udf"
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
	JobID string `json:"job_id"`
	// Func names the registered local step.
	Func string `json:"func"`
	// DataQuery is the SQL producing the step's relation input (generated
	// by the master from the experiment's variables/datasets/filter).
	DataQuery string `json:"data_query"`
	// Kwargs are the step's keyword arguments.
	Kwargs Kwargs `json:"kwargs"`
	// ShareToGlobal ships the transfer back to the master (plain path).
	ShareToGlobal bool `json:"share_to_global"`
	// SecureKeys, when non-empty, secret-shares the named numeric transfer
	// entries into the SMPC cluster under JobID instead of returning them;
	// only shape metadata leaves the worker.
	SecureKeys []string `json:"secure_keys,omitempty"`
	// Tenant and Datasets attribute the step for metering and audit: the
	// worker tags its engine statements with them, so per-hospital access
	// records name the owning tenant and the datasets touched. Additive
	// JSON fields — older workers ignore them.
	Tenant   string   `json:"tenant,omitempty"`
	Datasets []string `json:"datasets,omitempty"`
	// Trace carries the master's trace context so worker-side spans nest
	// under the per-worker round-trip span. On the HTTP hop it also rides
	// the X-MIP-Trace header; nil disables tracing for the step.
	Trace *obs.TraceRef `json:"trace,omitempty"`
}

// LocalRunResponse carries the step's outputs (or pointers to them).
type LocalRunResponse struct {
	// WorkerID identifies the responding worker.
	WorkerID string `json:"worker_id"`
	// Transfer holds the result when ShareToGlobal is set and the secure
	// path is not in use.
	Transfer Transfer `json:"transfer,omitempty"`
	// TransferRef points to the worker-resident result otherwise.
	TransferRef string `json:"transfer_ref,omitempty"`
	// Shapes reports the layout of securely shared entries.
	Shapes map[string][]int `json:"shapes,omitempty"`
	// Rows is the number of input rows the step consumed (not shipped in
	// privacy-sensitive deployments; used by tests and the leakage audit).
	Rows int `json:"rows"`
	// Spans are the worker-side trace spans of this step, shipped back in
	// the envelope so the master grafts them into the experiment tree.
	// Spans carry timings and row counts only — never data values.
	Spans []obs.SpanData `json:"spans,omitempty"`
}

// Worker is one hospital node: the local data engine, the installed
// algorithm library, and the enforcement point of the platform's privacy
// boundary.
type Worker struct {
	id       string
	db       *engine.DB
	funcs    *FuncRegistry
	udfReg   *udf.Registry
	exec     *udf.Exec
	smpc     *smpc.Cluster // the decoupled SMPC cluster (nil = plain only)
	minRows  int
	mu       sync.Mutex
	results  map[string]Transfer // transfer_ref → kept-local results
	refSeq   int
	datasets []string
	jobs     map[string]*jobEntry // JobID → dedupe record (replayed /localrun)
	jobOrder []string             // FIFO eviction order for jobs

	// Dataset version stamps for the master's result cache. bootID is
	// restart-unique, so versions from a previous process never validate a
	// stale entry; dsVers assigns each dataset a monotonic version bumped
	// when its data changes (see refreshDatasets).
	bootID      string
	verSeq      uint64
	dsVers      map[string]uint64
	dsCounts    map[string]float64 // dataset → row count at last refresh
	lastDataVer uint64             // engine data version at last refresh
	lastBlind   uint64             // engine blind-bump count at last refresh
}

// jobDedupeCap bounds the replay-dedupe cache; the oldest job records are
// evicted first. 256 comfortably covers the retry window of live steps.
const jobDedupeCap = 256

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
		udfReg:  udf.NewRegistry(),
		minRows: DefaultMinRows,
		results: make(map[string]Transfer),
		jobs:    make(map[string]*jobEntry),
		bootID:  randHex(8),
		dsVers:  make(map[string]uint64),
	}
	for _, o := range opts {
		o(w)
	}
	w.exec = &udf.Exec{Registry: w.udfReg, DB: db}
	w.refreshDatasets()
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

// refreshDatasets scans the data table for the dataset column values and
// maintains the per-dataset version stamps. A dataset's version bumps when
// its row count changes (append, partial delete, new dataset). Attribution
// by count-diffing is trusted only when it is airtight: if the engine
// reports any blind bump (BumpDataVersion from an in-place loader, DDL
// swapping a table wholesale), or the data version advanced by a number of
// mutations different from the row-count-change tally (multi-dataset
// statements, anything unexplained), every dataset's version bumps.
// Strict equality matters: a surplus of count changes (one DELETE spanning
// two datasets) must not bank headroom that would mask a concurrent
// count-invisible mutation — over-invalidation is safe, serving stale
// cached results is not.
func (w *Worker) refreshDatasets() {
	w.datasets = nil
	dv := w.db.DataVersion()
	blind := w.db.DataBumps()
	t, err := w.db.Query(fmt.Sprintf(`SELECT dataset, count(*) AS n FROM %s GROUP BY dataset ORDER BY dataset`, DataTable))
	if err != nil {
		return
	}
	counts := make(map[string]float64, t.NumRows())
	for i := 0; i < t.NumRows(); i++ {
		ds := t.Col(0).StringAt(i)
		w.datasets = append(w.datasets, ds)
		counts[ds] = t.Col(1).CastFloat64().Float64s()[i]
	}
	changed := 0
	for ds, n := range counts {
		if old, ok := w.dsCounts[ds]; !ok || old != n {
			w.verSeq++
			w.dsVers[ds] = w.verSeq
			changed++
		}
	}
	for ds := range w.dsCounts {
		if _, ok := counts[ds]; !ok {
			delete(w.dsVers, ds)
			changed++
		}
	}
	if blind != w.lastBlind || dv-w.lastDataVer != uint64(changed) {
		for ds := range w.dsVers {
			w.verSeq++
			w.dsVers[ds] = w.verSeq
		}
	}
	w.dsCounts = counts
	w.lastDataVer = dv
	w.lastBlind = blind
}

// DatasetInfo bundles a worker's dataset availability with the version
// stamps the master's result cache keys on. Additive JSON over the
// /datasets wire shape, so older clients decoding only `datasets` keep
// working.
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

// DatasetInfo implements the master's optional versioned-client interface:
// availability plus current per-dataset versions.
func (w *Worker) DatasetInfo() (DatasetInfo, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.refreshDatasets()
	vers := make(map[string]uint64, len(w.dsVers))
	for k, v := range w.dsVers {
		vers[k] = v
	}
	return DatasetInfo{
		Datasets: append([]string(nil), w.datasets...),
		Versions: vers,
		Boot:     w.bootID,
		Stamp:    w.bootID + ":" + strconv.FormatUint(w.lastDataVer, 10),
	}, nil
}

// DataStamp is the cheap change probe: no table scan, just the engine's
// data-version atomic. If it still equals the Stamp of an earlier
// DatasetInfo, no data on this worker has changed since that snapshot.
func (w *Worker) DataStamp() (string, error) {
	return w.bootID + ":" + strconv.FormatUint(w.db.DataVersion(), 10), nil
}

// Datasets implements WorkerClient: the dataset availability the master
// tracks for algorithm shipping.
func (w *Worker) Datasets() ([]string, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.refreshDatasets()
	return append([]string(nil), w.datasets...), nil
}

// Query implements WorkerClient: the remote-table path (non-sensitive
// deployments only; production MIP disables raw remote queries).
func (w *Worker) Query(sql string) (*engine.Table, error) { return w.db.Query(sql) }

// QueryCtx is Query scoped by a caller context: cancelling it aborts the
// engine execution at the next batch boundary. Federation transports use it
// so a master-side kill reaches the worker's engine.
func (w *Worker) QueryCtx(ctx context.Context, sql string) (*engine.Table, error) {
	return w.db.QueryCtx(ctx, sql)
}

// CancelJob aborts a step that is still executing under the given JobID.
// Returns true if a live job was found and its cancellation triggered. The
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

// LocalRun implements WorkerClient: executes a local step inside the
// engine via the UDF generator, applies disclosure control, and routes the
// transfer through the requested path. When the request carries a trace
// context the worker records an execution span (with engine query stats)
// and ships it back in the response envelope.
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

	// Wrap the step as a SQL UDF (idempotently) and run it in-engine.
	udfName := "fed_" + req.Func
	if w.udfReg.Lookup(udfName) == nil {
		def := &udf.Def{
			Name:   udfName,
			Doc:    "federated local step " + req.Func,
			Inputs: []udf.IOSpec{{Name: "data", Kind: udf.Relation}, {Name: "kwargs", Kind: udf.Transfer}},
			Outputs: []udf.IOSpec{
				{Name: "transfer", Kind: udf.Transfer},
			},
			Body: func(ctx *udf.Ctx, args []udf.Value) ([]udf.Value, error) {
				wctx := &WorkerCtx{WorkerID: w.id, UDF: ctx}
				kw := Kwargs(args[1].Transfer)
				tr, err := fn(wctx, args[0].Table, kw)
				if err != nil {
					return nil, err
				}
				return []udf.Value{udf.TransferValue(tr)}, nil
			},
		}
		if err := w.udfReg.Register(def); err != nil && w.udfReg.Lookup(udfName) == nil {
			return resp, err
		}
	}

	args := []udf.Value{{}, udf.TransferValue(req.Kwargs)}
	udfSpan := span.StartChild("udf " + udfName)
	outs, err := w.exec.CallCtx(ctx, udfName, args, map[string]string{"data": req.DataQuery})
	udfSpan.SetError(err)
	udfSpan.End()
	if udfSpan != nil {
		resp.Spans = append(resp.Spans, udfSpan.Data())
	}
	if err != nil {
		return resp, err
	}
	transfer := Transfer(outs[0].Transfer)

	// Row count for disclosure control.
	rows, err := w.countRows(ctx, req.DataQuery, span, &resp)
	if err != nil {
		return resp, err
	}
	resp.Rows = rows
	leavesWorker := req.ShareToGlobal || len(req.SecureKeys) > 0
	if leavesWorker && rows > 0 && rows < w.minRows {
		fedDisclosureBlocks.Inc()
		return resp, fmt.Errorf("federation: worker %s: disclosure control: %d rows < minimum %d", w.id, rows, w.minRows)
	}

	if len(req.SecureKeys) > 0 {
		if w.smpc == nil {
			return resp, fmt.Errorf("federation: worker %s has no SMPC cluster attached", w.id)
		}
		flat, shapes, err := flattenNumeric(transfer, req.SecureKeys)
		if err != nil {
			return resp, err
		}
		if err := w.smpc.ImportSecret(req.JobID, w.id, flat); err != nil {
			return resp, err
		}
		resp.Shapes = shapes
		return resp, nil
	}

	if req.ShareToGlobal {
		resp.Transfer = transfer
		return resp, nil
	}

	// Result stays on the worker as a pointer.
	w.mu.Lock()
	w.refSeq++
	ref := fmt.Sprintf("%s/%s#%d", w.id, req.JobID, w.refSeq)
	w.results[ref] = transfer
	w.mu.Unlock()
	resp.TransferRef = ref
	return resp, nil
}

// countRows evaluates the data query's row count (with a cheap rewrite for
// plain SELECT ... FROM shapes; falls back to running the query). The
// engine's per-query stats land on a child trace span when tracing is on.
func (w *Worker) countRows(ctx context.Context, dataQuery string, parent *obs.Span, resp *LocalRunResponse) (int, error) {
	if dataQuery == "" {
		return 0, nil
	}
	qspan := parent.StartChild("engine query")
	t, qs, err := w.db.QueryWithStatsCtx(ctx, dataQuery)
	if qspan != nil {
		for k, v := range qs.Attrs() {
			qspan.SetAttr(k, v)
		}
		qspan.SetError(err)
		qspan.End()
		d := qspan.Data()
		resp.Spans = append(resp.Spans, d)
		// Graft the measured operator tree under the query span, so the
		// master's experiment trace shows this worker's per-operator
		// breakdown. Spans carry shapes and timings only — never values.
		planSpans(d.TraceID, d.SpanID, d.Start, qs.Root, &resp.Spans)
	}
	if err != nil {
		return 0, err
	}
	return t.NumRows(), nil
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

// LocalResult retrieves a kept-local transfer by ref (worker-side only; the
// master never calls this in privacy mode — it is how subsequent local
// steps consume prior results).
func (w *Worker) LocalResult(ref string) (Transfer, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	t, ok := w.results[ref]
	return t, ok
}

// GenerateStepSQL exposes the UDF-to-SQL text for a registered step; shown
// by the CLI's explain mode, mirroring the paper's generated wrappers.
func (w *Worker) GenerateStepSQL(funcName, dataQuery string) (string, error) {
	fn := w.funcs.Local(funcName)
	if fn == nil {
		return "", fmt.Errorf("federation: no local func %q", funcName)
	}
	def := &udf.Def{
		Name:    "fed_" + funcName,
		Inputs:  []udf.IOSpec{{Name: "data", Kind: udf.Relation}, {Name: "kwargs", Kind: udf.Transfer}},
		Outputs: []udf.IOSpec{{Name: "transfer", Kind: udf.Transfer}},
		Body:    func(*udf.Ctx, []udf.Value) ([]udf.Value, error) { return nil, nil },
	}
	src := strings.TrimSpace(dataQuery)
	if src == "" {
		src = DataTable
	} else {
		src = "(" + src + ")"
	}
	return udf.GenerateSQL(def, []string{src, "kwargs"}, ""), nil
}
