package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"mip/internal/algorithms"
	"mip/internal/obs"
)

// Workflows: the dashboard's Workflow tab chains several experiments into
// one asynchronous unit (e.g. descriptive statistics → PCA → k-means over
// the same cohort). Steps run sequentially on the federation; the workflow
// fails fast on the first failing step, and per-step results are stored
// with the workflow.

// WorkflowStep is one algorithm invocation in a chain.
type WorkflowStep struct {
	Name      string             `json:"name"`
	Algorithm string             `json:"algorithm"`
	Request   algorithms.Request `json:"request"`
}

// WorkflowRequest is the POST /workflows payload. Tenant attributes every
// step's statements to a billing account, as on POST /experiments; the
// X-MIP-Tenant request header takes precedence when set.
type WorkflowRequest struct {
	Name   string         `json:"name"`
	Tenant string         `json:"tenant,omitempty"`
	Steps  []WorkflowStep `json:"steps"`
}

// WorkflowStepResult is one step's outcome.
type WorkflowStepResult struct {
	Name      string          `json:"name"`
	Algorithm string          `json:"algorithm"`
	Status    string          `json:"status"` // pending | success | error | skipped
	Result    json.RawMessage `json:"result,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// Workflow is the stored state of one chain.
type Workflow struct {
	UUID     string               `json:"uuid"`
	Name     string               `json:"name"`
	Status   string               `json:"status"` // pending | running | success | error
	Steps    []WorkflowStepResult `json:"steps"`
	Created  time.Time            `json:"created"`
	Finished *time.Time           `json:"finished,omitempty"`

	spec   []WorkflowStep
	tenant string        // meters every step's statements
	done   chan struct{} // closed at the terminal transition
}

// snapshotWorkflow deep-copies a workflow (steps included) so JSON
// encoding outside the lock cannot race with the runner's mutations.
func snapshotWorkflow(wf *Workflow) *Workflow {
	cp := *wf
	cp.Steps = append([]WorkflowStepResult(nil), wf.Steps...)
	return &cp
}

// registerWorkflowRoutes adds the workflow endpoints to the mux; called by
// Handler.
func (s *Server) registerWorkflowRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /workflows", s.handleCreateWorkflow)
	mux.HandleFunc("GET /workflows", s.handleListWorkflows)
	mux.HandleFunc("GET /workflows/{uuid}", s.handleGetWorkflow)
}

func (s *Server) handleCreateWorkflow(w http.ResponseWriter, r *http.Request) {
	var req WorkflowRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if len(req.Steps) == 0 {
		writeErr(w, http.StatusUnprocessableEntity, "workflow needs at least one step")
		return
	}
	for i, st := range req.Steps {
		if algorithms.Get(st.Algorithm) == nil {
			writeErr(w, http.StatusUnprocessableEntity, "step %d: unknown algorithm %q", i, st.Algorithm)
			return
		}
		if err := s.validateDatasets(st.Request.Datasets); err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "step %d: %v", i, err)
			return
		}
	}
	if h := r.Header.Get("X-MIP-Tenant"); h != "" {
		req.Tenant = h
	}
	s.mu.Lock()
	s.seq++
	wf := &Workflow{
		UUID:    fmt.Sprintf("wf-%s-%06d", s.instance, s.seq),
		Name:    req.Name,
		tenant:  req.Tenant,
		Status:  "pending",
		Created: time.Now(),
		spec:    req.Steps,
		done:    make(chan struct{}),
	}
	for _, st := range req.Steps {
		wf.Steps = append(wf.Steps, WorkflowStepResult{
			Name: st.Name, Algorithm: st.Algorithm, Status: "pending",
		})
	}
	if s.workflows == nil {
		s.workflows = make(map[string]*Workflow)
	}
	s.workflows[wf.UUID] = wf
	snapshot := snapshotWorkflow(wf)
	s.mu.Unlock()

	if _, err := s.Runner.Submit("workflow", func(context.Context) (any, error) {
		return s.runWorkflow(wf)
	}); err != nil {
		s.mu.Lock()
		s.finishWorkflow(wf, "error")
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "submitting: %v", err)
		return
	}
	writeJSON(w, http.StatusCreated, snapshot)
}

// runWorkflow is the queued task that executes the chain. The task fails
// with the failing step's error, and its result names the workflow.
func (s *Server) runWorkflow(wf *Workflow) (any, error) {
	s.mu.Lock()
	wf.Status = "running"
	steps := append([]WorkflowStep(nil), wf.spec...)
	s.mu.Unlock()

	// The workflow UUID is the trace id; each step's spans nest under a
	// per-step child of this root (the trace endpoint accepts wf- uuids too).
	root := obs.DefaultTraces.StartSpan(wf.UUID, "", "workflow "+wf.Name)

	status := "success"
	var err error
	for i, st := range steps {
		span := root.StartChild("step " + st.Algorithm)
		span.SetAttr("name", st.Name)
		var result json.RawMessage
		result, _, err = s.runAlgorithm(fmt.Sprintf("%s/step-%d", wf.UUID, i+1), wf.tenant, st.Algorithm,
			st.Request, obs.TraceRef{TraceID: wf.UUID, SpanID: span.ID()}, time.Now())
		span.SetError(err)
		span.End()
		s.mu.Lock()
		if err != nil {
			wf.Steps[i].Status = "error"
			wf.Steps[i].Error = err.Error()
			status = "error"
		} else {
			wf.Steps[i].Status = "success"
			wf.Steps[i].Result = result
		}
		s.mu.Unlock()
		if err != nil {
			break
		}
	}
	root.SetAttr("status", status)
	root.End()
	s.mu.Lock()
	s.finishWorkflow(wf, status)
	s.mu.Unlock()
	return map[string]string{"uuid": wf.UUID}, err
}

// finishWorkflow ends wf with status: every step that never ran is
// skipped, and the record settles. Callers hold s.mu.
func (s *Server) finishWorkflow(wf *Workflow, status string) {
	wf.Status = status
	for i := range wf.Steps {
		if wf.Steps[i].Status == "pending" {
			wf.Steps[i].Status = "skipped"
		}
	}
	settle(wf.done, &wf.Finished, wf.UUID, s.workflows, &s.wfDone)
}

func (s *Server) handleListWorkflows(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]*Workflow, 0, len(s.workflows))
	for _, wf := range s.workflows {
		out = append(out, snapshotWorkflow(wf))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].UUID < out[j].UUID })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetWorkflow(w http.ResponseWriter, r *http.Request) {
	uuid := r.PathValue("uuid")
	s.mu.Lock()
	wf := s.workflows[uuid]
	var cp *Workflow
	if wf != nil {
		cp = snapshotWorkflow(wf)
	}
	s.mu.Unlock()
	if cp == nil {
		writeErr(w, http.StatusNotFound, "unknown workflow %q", uuid)
		return
	}
	writeJSON(w, http.StatusOK, cp)
}

// WaitForWorkflow blocks until the workflow finishes or ctx ends and
// returns its snapshot.
func (s *Server) WaitForWorkflow(ctx context.Context, uuid string) (*Workflow, error) {
	s.mu.Lock()
	wf := s.workflows[uuid]
	s.mu.Unlock()
	if wf == nil {
		return nil, fmt.Errorf("api: unknown workflow %q", uuid)
	}
	err := await(ctx, wf.done)
	s.mu.Lock()
	snapshot := snapshotWorkflow(wf)
	s.mu.Unlock()
	return snapshot, err
}
