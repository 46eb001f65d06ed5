package api

import (
	"encoding/json"
	"net/http"
	"strconv"

	"mip/internal/engine"
	"mip/internal/obs"
)

// Query-observability endpoints: the live statement registry (with kill),
// the process-wide slow-query log and federated EXPLAIN over the workers'
// merge view.

// handleActiveQueries serves a snapshot of every statement currently
// executing in this process: id, SQL, tenant/experiment tag, start time,
// live rows and accounted bytes, and the operator it is inside right now.
func (s *Server) handleActiveQueries(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, ActiveQueriesResponse{Queries: engine.Queries.List()})
}

// handleKillQuery cancels a live statement by registry id. The query fails
// with a cancelled verdict at its next batch boundary; on federated merge
// queries the cancellation rides the per-part contexts to the workers.
func (s *Server) handleKillQuery(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad query id %q", r.PathValue("id"))
		return
	}
	if !engine.Queries.Cancel(id) {
		writeErr(w, http.StatusNotFound, "no active query %d", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"killed": id})
}

// handleSlowQueries serves the retained slow-query records, newest first.
func (s *Server) handleSlowQueries(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, SlowQueriesResponse{
		ThresholdSeconds: obs.DefaultSlowLog.Threshold().Seconds(),
		Queries:          obs.DefaultSlowLog.Entries(),
	})
}

// handleCacheStats serves both cache tiers' counters: the engine plan
// cache this platform's databases resolve statements through (see
// SetPlanCache) and the master's federated result cache.
func (s *Server) handleCacheStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, CacheStatsResponse{
		Plan:   s.activePlanCache().Stats(),
		Result: s.Master.ResultCacheStats(),
	})
}

// handleCacheFlush drops every entry of both cache tiers and seals the
// flush onto the audit chain (who cleared the caches, and when, is an
// operational event worth keeping).
func (s *Server) handleCacheFlush(w http.ResponseWriter, r *http.Request) {
	pc := s.activePlanCache()
	plan := pc.Stats().Entries
	pc.Flush()
	result := s.Master.FlushResultCache()
	obs.Emit(&obs.QueryRecord{
		Kind:    obs.KindCacheFlush,
		Tenant:  r.Header.Get("X-MIP-Tenant"),
		Verdict: engine.VerdictCompleted,
		RowsOut: plan + result,
	}, nil, true)
	writeJSON(w, http.StatusOK, CacheFlushResponse{Plan: plan, Result: result})
}

type explainRequest struct {
	SQL      string   `json:"sql"`
	Analyze  bool     `json:"analyze"`
	Datasets []string `json:"datasets"`
	// Tenant attributes the statement (which executes under analyze) to a
	// usage account; the X-MIP-Tenant header takes precedence when set.
	Tenant string `json:"tenant,omitempty"`
}

// handleExplain plans (or, with analyze, executes and profiles) a federated
// query over the merge view of the workers holding the requested datasets.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req explainRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.SQL == "" {
		writeErr(w, http.StatusBadRequest, "missing sql")
		return
	}
	if len(req.Datasets) == 0 {
		req.Datasets = s.Master.Datasets()
	}
	if err := s.validateDatasets(req.Datasets); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if h := r.Header.Get("X-MIP-Tenant"); h != "" {
		req.Tenant = h
	}
	lines, err := s.Master.ExplainAs(req.Tenant, req.Datasets, req.SQL, req.Analyze)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ExplainResponse{SQL: req.SQL, Analyzed: req.Analyze, Datasets: req.Datasets, Plan: lines})
}
