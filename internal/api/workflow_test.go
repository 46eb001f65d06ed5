package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"mip/internal/algorithms"
	"mip/internal/catalogue"
	"mip/internal/obs"
	"mip/internal/queue"
)

func TestWorkflowLifecycle(t *testing.T) {
	s, ts := testServer(t)
	req := WorkflowRequest{
		Name: "profile then cluster",
		Steps: []WorkflowStep{
			{
				Name:      "profile",
				Algorithm: "descriptive_stats",
				Request:   algorithms.Request{Datasets: []string{"edsd"}, Y: []string{"ab42", "p_tau"}},
			},
			{
				Name:      "pca",
				Algorithm: "pca",
				Request:   algorithms.Request{Datasets: []string{"edsd"}, Y: []string{"ab42", "p_tau", "lefthippocampus"}},
			},
			{
				Name:      "cluster",
				Algorithm: "kmeans",
				Request: algorithms.Request{
					Datasets:   []string{"edsd"},
					Y:          []string{"ab42", "p_tau"},
					Parameters: map[string]any{"k": 2, "iterations_max_number": 20},
				},
			},
		},
	}
	var wf Workflow
	if code := postJSON(t, ts.URL+"/workflows", req, &wf); code != 201 {
		t.Fatalf("create = %d", code)
	}
	if len(wf.Steps) != 3 {
		t.Fatalf("steps = %d", len(wf.Steps))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := s.WaitForWorkflow(ctx, wf.UUID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != "success" {
		t.Fatalf("status = %q, steps = %+v", final.Status, final.Steps)
	}
	for _, st := range final.Steps {
		if st.Status != "success" || len(st.Result) == 0 {
			t.Fatalf("step %q: %q (%s)", st.Name, st.Status, st.Error)
		}
	}
	if final.Finished == nil {
		t.Fatal("finished timestamp missing")
	}

	// List and get endpoints.
	var list []Workflow
	if code := getJSON(t, ts.URL+"/workflows", &list); code != 200 || len(list) != 1 {
		t.Fatalf("list = %d entries (code %d)", len(list), code)
	}
	var fetched Workflow
	if code := getJSON(t, ts.URL+"/workflows/"+wf.UUID, &fetched); code != 200 {
		t.Fatalf("get = %d", code)
	}
	if fetched.Status != "success" {
		t.Fatalf("fetched status = %q", fetched.Status)
	}
}

func TestWorkflowFailFast(t *testing.T) {
	s, ts := testServer(t)
	req := WorkflowRequest{
		Name: "fails in the middle",
		Steps: []WorkflowStep{
			{Name: "ok", Algorithm: "descriptive_stats",
				Request: algorithms.Request{Datasets: []string{"edsd"}, Y: []string{"ab42"}}},
			{Name: "boom", Algorithm: "linear_regression",
				Request: algorithms.Request{Datasets: []string{"edsd"}, Y: []string{"ab42"}}}, // no X → error
			{Name: "never", Algorithm: "descriptive_stats",
				Request: algorithms.Request{Datasets: []string{"edsd"}, Y: []string{"p_tau"}}},
		},
	}
	var wf Workflow
	if code := postJSON(t, ts.URL+"/workflows", req, &wf); code != 201 {
		t.Fatalf("create = %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := s.WaitForWorkflow(ctx, wf.UUID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != "error" {
		t.Fatalf("status = %q", final.Status)
	}
	if final.Steps[0].Status != "success" {
		t.Fatalf("step 0 = %q", final.Steps[0].Status)
	}
	if final.Steps[1].Status != "error" || final.Steps[1].Error == "" {
		t.Fatalf("step 1 = %+v", final.Steps[1])
	}
	if final.Steps[2].Status != "skipped" {
		t.Fatalf("step 2 = %q", final.Steps[2].Status)
	}
}

func TestWorkflowValidation(t *testing.T) {
	_, ts := testServer(t)
	// Empty workflow.
	if code := postJSON(t, ts.URL+"/workflows", WorkflowRequest{Name: "empty"}, nil); code != 422 {
		t.Fatalf("empty = %d", code)
	}
	// Unknown algorithm inside a step.
	code := postJSON(t, ts.URL+"/workflows", WorkflowRequest{
		Steps: []WorkflowStep{{Algorithm: "ghost"}},
	}, nil)
	if code != 422 {
		t.Fatalf("unknown algorithm = %d", code)
	}
	// Unknown dataset inside a step.
	code = postJSON(t, ts.URL+"/workflows", WorkflowRequest{
		Steps: []WorkflowStep{{
			Algorithm: "descriptive_stats",
			Request:   algorithms.Request{Datasets: []string{"ghost"}, Y: []string{"ab42"}},
		}},
	}, nil)
	if code != 422 {
		t.Fatalf("unknown dataset = %d", code)
	}
	// Malformed body.
	resp, err := http.Post(ts.URL+"/workflows", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed = %d", resp.StatusCode)
	}
	// Unknown workflow id.
	if code := getJSON(t, ts.URL+"/workflows/ghost", nil); code != 404 {
		t.Fatalf("unknown workflow = %d", code)
	}
}

// The decoder must not be confused by Result round trips.
func TestWorkflowResultDecodable(t *testing.T) {
	s, ts := testServer(t)
	var wf Workflow
	postJSON(t, ts.URL+"/workflows", WorkflowRequest{
		Steps: []WorkflowStep{{
			Name:      "corr",
			Algorithm: "pearson_correlation",
			Request: algorithms.Request{
				Datasets: []string{"edsd"},
				Y:        []string{"minimentalstate"},
				X:        []string{"lefthippocampus"},
			},
		}},
	}, &wf)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := s.WaitForWorkflow(ctx, wf.UUID)
	if err != nil {
		t.Fatal(err)
	}
	var res map[string]any
	if err := json.Unmarshal(final.Steps[0].Result, &res); err != nil {
		t.Fatal(err)
	}
	corrs := res["correlations"].([]any)
	r := corrs[0].(map[string]any)["r"].(float64)
	if r <= 0 {
		t.Fatalf("r = %v, expected positive MMSE~hippocampus correlation", r)
	}
}

// TestWorkflowStepsMeteredUnderTenant: POST /workflows takes its tenant from
// X-MIP-Tenant like POST /experiments, so each step's worker statements
// meter to that account and each step leaves an experiment record on the
// tenant's audit chain.
func TestWorkflowStepsMeteredUnderTenant(t *testing.T) {
	s, ts := testServer(t)
	tenant := fmt.Sprintf("wf-tenant-%d", time.Now().UnixNano())
	req := WorkflowRequest{
		Name:   "metered",
		Tenant: "overridden-by-header",
		Steps: []WorkflowStep{
			{Name: "profile", Algorithm: "descriptive_stats",
				Request: algorithms.Request{Datasets: []string{"edsd"}, Y: []string{"ab42"}}},
			{Name: "corr", Algorithm: "pearson_correlation",
				Request: algorithms.Request{Datasets: []string{"edsd"}, Y: []string{"minimentalstate"}, X: []string{"lefthippocampus"}}},
		},
	}
	var wf Workflow
	if code := postJSONAs(t, tenant, ts.URL+"/workflows", req, &wf); code != 201 {
		t.Fatalf("create = %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if final, err := s.WaitForWorkflow(ctx, wf.UUID); err != nil || final.Status != "success" {
		t.Fatalf("workflow = %+v, %v", final, err)
	}

	var usage obs.TenantUsage
	if code := getJSON(t, ts.URL+"/tenants/"+tenant+"/usage", &usage); code != 200 {
		t.Fatalf("GET /tenants/%s/usage = %d: the steps were not metered to the tenant", tenant, code)
	}
	if usage.Experiments != 2 || usage.Queries == 0 {
		t.Fatalf("usage = %+v, want 2 experiments and metered statements", usage)
	}
	var audit struct {
		Records  []obs.AuditRecord `json:"records"`
		Verified bool              `json:"verified"`
	}
	if code := getJSON(t, ts.URL+"/audit?tenant="+tenant, &audit); code != 200 || !audit.Verified {
		t.Fatalf("GET /audit = %d, verified %v", code, audit.Verified)
	}
	var steps []string
	for _, r := range audit.Records {
		if r.Kind == "experiment" {
			steps = append(steps, r.Job)
			if len(r.Workers) != 2 {
				t.Fatalf("step %s audit workers = %v, want both", r.Job, r.Workers)
			}
		}
	}
	if want := []string{wf.UUID + "/step-1", wf.UUID + "/step-2"}; !slices.Equal(steps, want) {
		t.Fatalf("experiment audit records = %v, want %v", steps, want)
	}
}

// TestTerminalRecordsFinished: every record that reaches a terminal status
// carries its finish time, and a workflow that ends before a step runs
// marks that step skipped. Two ways to end early are covered: a closed
// runner refusing the submission (503), and AbortPending settling a
// workflow no runner picked up.
func TestTerminalRecordsFinished(t *testing.T) {
	s, ts := testServer(t)
	req := algorithms.Request{Datasets: []string{"edsd"}, Y: []string{"ab42"}}
	wfReq := WorkflowRequest{Name: "early end", Steps: []WorkflowStep{{Name: "one", Algorithm: "descriptive_stats", Request: req}}}
	checkWorkflow := func(how string, wf *Workflow) {
		t.Helper()
		if wf.Status != "error" || wf.Finished == nil || wf.Steps[0].Status != "skipped" {
			t.Fatalf("%s: workflow status=%q finished=%v step=%q, want error, stamped, skipped",
				how, wf.Status, wf.Finished, wf.Steps[0].Status)
		}
	}

	// A runner whose only goroutine is held: the workflow stays pending
	// until AbortPending ends it.
	holdRunner(t, s)
	var wf Workflow
	if code := postJSON(t, ts.URL+"/workflows", wfReq, &wf); code != 201 {
		t.Fatalf("create workflow = %d", code)
	}
	if n := s.AbortPending("test shutdown"); n != 1 {
		t.Fatalf("AbortPending settled %d records, want 1", n)
	}
	getJSON(t, ts.URL+"/workflows/"+wf.UUID, &wf)
	checkWorkflow("aborted", &wf)

	// A server whose runner is closed refuses every submission.
	runner := queue.NewRunner(queue.NewBroker(0, 0), 1)
	runner.Close()
	ts = httptest.NewServer(NewServer(s.Master, catalogue.Default(), runner).Handler())
	t.Cleanup(ts.Close)
	if code := postJSON(t, ts.URL+"/experiments", ExperimentRequest{Algorithm: "descriptive_stats", Request: req}, nil); code != 503 {
		t.Fatalf("experiment on a closed queue = %d, want 503", code)
	}
	var exps []Experiment
	getJSON(t, ts.URL+"/experiments", &exps)
	if len(exps) != 1 || exps[0].Status != "error" || exps[0].Finished == nil {
		t.Fatalf("experiments after a refused submit = %+v, want one errored and stamped", exps)
	}
	if code := postJSON(t, ts.URL+"/workflows", wfReq, nil); code != 503 {
		t.Fatalf("workflow on a closed queue = %d, want 503", code)
	}
	var wfs []Workflow
	getJSON(t, ts.URL+"/workflows", &wfs)
	if len(wfs) != 1 {
		t.Fatalf("%d workflows listed, want 1", len(wfs))
	}
	checkWorkflow("refused", &wfs[0])
}
