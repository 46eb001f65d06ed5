// Package api implements the platform's REST interface — the backend the
// MIP dashboard talks to (Figures 3-5 of the paper): list pathologies,
// datasets and variables, browse the algorithm catalogue, create an
// experiment, poll it while "your experiment is currently running", and
// fetch its result. Experiments execute asynchronously through the task
// queue (the Celery/RabbitMQ substitute), exactly like the paper's stack.
package api

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"mip/internal/algorithms"
	"mip/internal/catalogue"
	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/obs"
	"mip/internal/queue"
)

// API metrics, registered eagerly for GET /metrics.
var (
	apiExperiments = obs.GetCounter("mip_api_experiments_total",
		"Experiments accepted through POST /experiments.")
	apiExperimentSeconds = obs.GetHistogram("mip_api_experiment_seconds",
		"End-to-end experiment wall time (queue wait included).", nil)
)

func apiExperimentsDone(status string) *obs.Counter {
	return obs.GetCounter("mip_api_experiments_finished_total",
		"Experiments finished, by terminal status.",
		obs.Label{Key: "status", Value: status})
}

// ExperimentRequest is the POST /experiments payload. Tenant attributes the
// experiment (and every statement it runs on the federation) to a billing
// account; the X-MIP-Tenant request header takes precedence when set.
type ExperimentRequest struct {
	Name      string             `json:"name"`
	Algorithm string             `json:"algorithm"`
	Tenant    string             `json:"tenant,omitempty"`
	Request   algorithms.Request `json:"request"`
}

// Experiment is the stored state of one experiment.
type Experiment struct {
	UUID      string             `json:"uuid"`
	Name      string             `json:"name"`
	Algorithm string             `json:"algorithm"`
	Tenant    string             `json:"tenant,omitempty"`
	Request   algorithms.Request `json:"request"`
	Status    string             `json:"status"` // pending | running | success | error
	Result    json.RawMessage    `json:"result,omitempty"`
	Error     string             `json:"error,omitempty"`
	// Degraded marks a result computed from a partial quorum: DroppedWorkers
	// lists the workers whose contributions are missing (see the master's
	// Tolerance policy).
	Degraded       bool       `json:"degraded,omitempty"`
	DroppedWorkers []string   `json:"dropped_workers,omitempty"`
	Created        time.Time  `json:"created"`
	Finished       *time.Time `json:"finished,omitempty"`

	taskID string
}

// Server wires the master, the catalogue and the task runner into HTTP
// handlers.
type Server struct {
	Master    *federation.Master
	Catalogue *catalogue.Catalogue
	Runner    *queue.Runner

	mu          sync.Mutex
	experiments map[string]*Experiment
	workflows   map[string]*Workflow
	seq         int
	start       time.Time
	// instance disambiguates UUIDs (and hence trace ids, which key the
	// process-global trace store) across servers sharing a process.
	instance string

	// planCache is the engine plan cache the /cache endpoints report and
	// flush, set via SetPlanCache; unset defaults to the process-wide
	// engine.DefaultPlanCache.
	planCache    *engine.PlanCache
	planCacheSet bool
}

// SetPlanCache points the /cache endpoints at the plan cache the
// platform's databases actually use (nil = plan caching disabled). Unset,
// the endpoints operate on engine.DefaultPlanCache — wrong whenever the
// platform wires its DBs to a private cache, so the platform constructor
// always calls this.
func (s *Server) SetPlanCache(pc *engine.PlanCache) {
	s.planCache, s.planCacheSet = pc, true
}

// activePlanCache resolves the cache the /cache endpoints operate on (nil
// when caching is disabled; Stats and Flush are nil-safe).
func (s *Server) activePlanCache() *engine.PlanCache {
	if s.planCacheSet {
		return s.planCache
	}
	return engine.DefaultPlanCache
}

// NewServer builds the API server and registers the experiment task
// handler on the runner.
func NewServer(master *federation.Master, cat *catalogue.Catalogue, runner *queue.Runner) *Server {
	s := &Server{
		Master:      master,
		Catalogue:   cat,
		Runner:      runner,
		experiments: make(map[string]*Experiment),
		start:       time.Now(),
		instance:    randHex(4),
	}
	runner.Register("experiment", s.runExperimentTask)
	runner.Register("workflow", s.runWorkflowTask)
	return s
}

// Handler returns the REST mux, wrapped in the obs middleware so every
// endpoint reports request count/latency/status metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", obs.MetricsHandler())
	mux.HandleFunc("GET /pathologies", s.handlePathologies)
	mux.HandleFunc("GET /pathologies/{code}/variables", s.handleVariables)
	mux.HandleFunc("GET /datasets", s.handleDatasets)
	mux.HandleFunc("GET /workers", s.handleWorkers)
	mux.HandleFunc("GET /algorithms", s.handleAlgorithms)
	mux.HandleFunc("POST /experiments", s.handleCreateExperiment)
	mux.HandleFunc("GET /experiments", s.handleListExperiments)
	mux.HandleFunc("GET /experiments/{uuid}", s.handleGetExperiment)
	mux.HandleFunc("GET /experiments/{uuid}/trace", s.handleExperimentTrace)
	mux.HandleFunc("GET /tenants", s.handleTenants)
	mux.HandleFunc("GET /tenants/{tenant}/usage", s.handleTenantUsage)
	mux.HandleFunc("GET /audit", s.handleAudit)
	mux.HandleFunc("GET /queries/slow", s.handleSlowQueries)
	mux.HandleFunc("GET /queries/active", s.handleActiveQueries)
	mux.HandleFunc("DELETE /queries/{id}", s.handleKillQuery)
	mux.HandleFunc("POST /queries/explain", s.handleExplain)
	mux.HandleFunc("GET /cache", s.handleCacheStats)
	mux.HandleFunc("POST /cache/flush", s.handleCacheFlush)
	s.registerWorkflowRoutes(mux)
	return obs.Middleware("api", mux)
}

// handleHealthz reports liveness plus a status snapshot the CLI
// pretty-prints: uptime, federation size, queue load and experiment counts.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	counts := map[string]int{}
	for _, e := range s.experiments {
		counts[e.Status]++
	}
	total := len(s.experiments)
	workflows := len(s.workflows)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"workers":        len(s.Master.Workers()),
		"worker_states":  s.Master.WorkerStates(),
		"queue_depth":    s.Runner.Depth(),
		"queue_running":  s.Runner.Running(),
		"experiments":    total,
		"by_status":      counts,
		"workflows":      workflows,
	})
}

// handleExperimentTrace serves the experiment's span tree as JSON. Spans
// exist only for experiments that actually ran on this process (the trace
// store is bounded FIFO), so a known experiment can legitimately return an
// empty tree after eviction.
func (s *Server) handleExperimentTrace(w http.ResponseWriter, r *http.Request) {
	uuid := r.PathValue("uuid")
	s.mu.Lock()
	_, knownExp := s.experiments[uuid]
	_, knownWf := s.workflows[uuid]
	s.mu.Unlock()
	if !knownExp && !knownWf {
		writeErr(w, http.StatusNotFound, "unknown experiment %q", uuid)
		return
	}
	writeJSON(w, http.StatusOK, TraceResponse{
		TraceID: uuid,
		Spans:   obs.DefaultTraces.Spans(uuid),
		Tree:    obs.DefaultTraces.Tree(uuid),
	})
}

// AbortPending marks every non-terminal experiment and workflow as errored
// with the given reason; called on shutdown after the queue drain so
// clients polling an abandoned run see a terminal state.
func (s *Server) AbortPending(reason string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	n := 0
	for _, e := range s.experiments {
		if e.Status == "pending" || e.Status == "running" {
			e.Status = "error"
			e.Error = reason
			e.Finished = &now
			n++
		}
	}
	for _, wf := range s.workflows {
		if wf.Status == "pending" || wf.Status == "running" {
			wf.Status = "error"
			wf.Finished = &now
			n++
		}
	}
	return n
}

func randHex(n int) string {
	b := make([]byte, n)
	rand.Read(b)
	return hex.EncodeToString(b)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handlePathologies(w http.ResponseWriter, _ *http.Request) {
	var out []map[string]any
	for _, code := range s.Catalogue.Pathologies() {
		p := s.Catalogue.Pathology(code)
		out = append(out, map[string]any{
			"code": p.Code, "label": p.Label, "datasets": p.Datasets,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleVariables(w http.ResponseWriter, r *http.Request) {
	code := r.PathValue("code")
	p := s.Catalogue.Pathology(code)
	if p == nil {
		writeErr(w, http.StatusNotFound, "unknown pathology %q", code)
		return
	}
	if q := r.URL.Query().Get("search"); q != "" {
		writeJSON(w, http.StatusOK, p.Search(q))
		return
	}
	writeJSON(w, http.StatusOK, p.AllVariables())
}

// handleDatasets reports live dataset availability from the master (which
// tracks it per worker for algorithm shipping).
func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	if err := s.Master.RefreshAvailability(); err != nil {
		writeErr(w, http.StatusBadGateway, "availability: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.Master.Availability())
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, algorithms.Specs())
}

// handleWorkers reports each worker's circuit-breaker health and the
// datasets it hosts — the operator's view of federation fault tolerance.
func (s *Server) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	states := s.Master.WorkerStates()
	avail := s.Master.Availability()
	hosts := map[string][]string{}
	for ds, ids := range avail {
		for _, id := range ids {
			hosts[id] = append(hosts[id], ds)
		}
	}
	var out []WorkerView
	for _, wc := range s.Master.Workers() {
		id := wc.ID()
		st := states[id]
		ds := hosts[id]
		sort.Strings(ds)
		out = append(out, WorkerView{
			ID: id, State: st.State, ConsecutiveFailures: st.ConsecutiveFailures,
			LastError: st.LastError, Datasets: ds,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCreateExperiment(w http.ResponseWriter, r *http.Request) {
	var req ExperimentRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if algorithms.Get(req.Algorithm) == nil {
		writeErr(w, http.StatusUnprocessableEntity, "unknown algorithm %q (see GET /algorithms)", req.Algorithm)
		return
	}
	if err := s.validateDatasets(req.Request.Datasets); err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	if h := r.Header.Get("X-MIP-Tenant"); h != "" {
		req.Tenant = h
	}
	s.mu.Lock()
	s.seq++
	exp := &Experiment{
		UUID:      fmt.Sprintf("exp-%s-%06d", s.instance, s.seq),
		Name:      req.Name,
		Algorithm: req.Algorithm,
		Tenant:    req.Tenant,
		Request:   req.Request,
		Status:    "pending",
		Created:   time.Now(),
	}
	s.experiments[exp.UUID] = exp
	s.mu.Unlock()

	apiExperiments.Inc()
	taskID, err := s.Runner.Submit("experiment", map[string]any{"uuid": exp.UUID})
	if err != nil {
		s.mu.Lock()
		exp.Status = "error"
		exp.Error = err.Error()
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "submitting: %v", err)
		return
	}
	s.mu.Lock()
	exp.taskID = taskID
	snapshot := *exp // the runner mutates exp concurrently; encode a copy
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, &snapshot)
}

func (s *Server) validateDatasets(datasets []string) error {
	if len(datasets) == 0 {
		return nil
	}
	avail := s.Master.Availability()
	var missing []string
	for _, d := range datasets {
		if len(avail[d]) == 0 {
			missing = append(missing, d)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("no worker holds dataset(s) %s", strings.Join(missing, ", "))
	}
	return nil
}

// runExperimentTask is the queue handler that actually executes an
// experiment on the federation.
func (s *Server) runExperimentTask(ctx context.Context, payload json.RawMessage) (any, error) {
	var p struct {
		UUID string `json:"uuid"`
	}
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil, err
	}
	s.mu.Lock()
	exp := s.experiments[p.UUID]
	if exp == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("api: unknown experiment %q", p.UUID)
	}
	exp.Status = "running"
	alg := algorithms.Get(exp.Algorithm)
	req := exp.Request
	created := exp.Created
	tenant := exp.Tenant
	s.mu.Unlock()

	// The experiment UUID doubles as the trace id: every span recorded while
	// the algorithm runs — master fan-outs, per-worker round-trips (local or
	// over HTTP), SMPC rounds, engine queries — nests under this root.
	root := obs.DefaultTraces.StartSpan(exp.UUID, "", "experiment "+exp.Algorithm)
	root.SetAttr("name", exp.Name)

	var sess *federation.Session
	finish := func(result algorithms.Result, err error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		now := time.Now()
		exp.Finished = &now
		apiExperimentSeconds.Observe(now.Sub(created).Seconds())
		if err != nil {
			exp.Status = "error"
			exp.Error = err.Error()
		} else if enc, encErr := json.Marshal(result); encErr != nil {
			exp.Status = "error"
			exp.Error = encErr.Error()
		} else {
			exp.Status = "success"
			exp.Result = enc
		}
		if sess != nil {
			if dropped := sess.Dropped(); len(dropped) > 0 {
				exp.Degraded = true
				exp.DroppedWorkers = dropped
				root.SetAttr("dropped_workers", strings.Join(dropped, ","))
			}
		}
		apiExperimentsDone(exp.Status).Inc()
		root.SetAttr("status", exp.Status)
		if exp.Status == "error" {
			root.SetAttr("error", exp.Error)
		}
		root.End()

		// The experiment's own record: its verdict, its worker set and any
		// degraded quorum. The per-statement rows/bytes were already emitted
		// by the workers' engines as they ran.
		rec := obs.QueryRecord{
			Kind:     obs.KindExperiment,
			ID:       exp.UUID,
			SQL:      exp.Algorithm,
			Tenant:   tenant,
			Job:      exp.UUID,
			Datasets: req.Datasets,
			Start:    created,
			Seconds:  now.Sub(created).Seconds(),
			Verdict:  exp.Status,
			Error:    exp.Error,
			Dropped:  exp.DroppedWorkers,
		}
		if sess != nil {
			rec.Workers = sess.WorkerIDs()
		}
		obs.Emit(&rec, nil, true)
	}

	sess, err := s.Master.NewSession(req.Datasets)
	if err != nil {
		finish(nil, err)
		return nil, nil // failure recorded on the experiment, not retried
	}
	sess.SetTrace(obs.TraceRef{TraceID: exp.UUID, SpanID: root.ID()})
	sess.SetTenant(tenant) // every worker statement meters under this account
	result, err := algorithms.Run(alg, sess, req)
	finish(result, err)
	return map[string]string{"uuid": p.UUID}, nil
}

func (s *Server) handleListExperiments(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]*Experiment, 0, len(s.experiments))
	for _, e := range s.experiments {
		cp := *e
		out = append(out, &cp)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].UUID < out[j].UUID })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetExperiment(w http.ResponseWriter, r *http.Request) {
	uuid := r.PathValue("uuid")
	s.mu.Lock()
	e := s.experiments[uuid]
	var cp *Experiment
	if e != nil {
		c := *e
		cp = &c
	}
	s.mu.Unlock()
	if cp == nil {
		writeErr(w, http.StatusNotFound, "unknown experiment %q", uuid)
		return
	}
	writeJSON(w, http.StatusOK, cp)
}

// WaitForExperiment polls until the experiment finishes (test/CLI helper).
func (s *Server) WaitForExperiment(ctx context.Context, uuid string) (*Experiment, error) {
	for {
		s.mu.Lock()
		e := s.experiments[uuid]
		var snapshot *Experiment
		if e != nil {
			c := *e
			snapshot = &c
		}
		s.mu.Unlock()
		if snapshot == nil {
			return nil, fmt.Errorf("api: unknown experiment %q", uuid)
		}
		if snapshot.Status == "success" || snapshot.Status == "error" {
			return snapshot, nil
		}
		select {
		case <-ctx.Done():
			return snapshot, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}
