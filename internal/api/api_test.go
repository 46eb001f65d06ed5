package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mip/internal/algorithms"
	"mip/internal/catalogue"
	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/queue"
	"mip/internal/synth"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	var clients []federation.WorkerClient
	for i := 0; i < 2; i++ {
		tab, err := synth.Generate(synth.Spec{Dataset: "edsd", Rows: 150, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		db := engine.NewDB()
		db.RegisterTable(federation.DataTable, tab)
		clients = append(clients, federation.NewWorker(fmt.Sprintf("w%d", i), db))
	}
	m, err := federation.NewMaster(clients, nil, federation.Security{})
	if err != nil {
		t.Fatal(err)
	}
	broker := queue.NewBroker(0, 0)
	runner := queue.NewRunner(broker, 2)
	t.Cleanup(runner.Close)
	s := NewServer(m, catalogue.Default(), runner)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, in, out any) int {
	t.Helper()
	body, _ := json.Marshal(in)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response of %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHealthAndCatalogueEndpoints(t *testing.T) {
	_, ts := testServer(t)
	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if health["workers"].(float64) != 2 {
		t.Fatalf("workers = %v", health["workers"])
	}

	var paths []map[string]any
	getJSON(t, ts.URL+"/pathologies", &paths)
	if len(paths) != 2 {
		t.Fatalf("pathologies = %d", len(paths))
	}

	var vars []catalogue.Variable
	getJSON(t, ts.URL+"/pathologies/dementia/variables", &vars)
	if len(vars) < 12 {
		t.Fatalf("variables = %d", len(vars))
	}
	getJSON(t, ts.URL+"/pathologies/dementia/variables?search=hippocampus", &vars)
	if len(vars) != 2 {
		t.Fatalf("search hits = %d", len(vars))
	}
	if code := getJSON(t, ts.URL+"/pathologies/nope/variables", nil); code != 404 {
		t.Fatalf("unknown pathology = %d", code)
	}

	var ds map[string][]string
	getJSON(t, ts.URL+"/datasets", &ds)
	if len(ds["edsd"]) != 2 {
		t.Fatalf("datasets = %v", ds)
	}

	var algs []algorithms.Spec
	getJSON(t, ts.URL+"/algorithms", &algs)
	if len(algs) < 15 {
		t.Fatalf("algorithms = %d", len(algs))
	}
}

func TestExperimentLifecycle(t *testing.T) {
	s, ts := testServer(t)
	req := ExperimentRequest{
		Name:      "MMSE ~ hippocampus",
		Algorithm: "linear_regression",
		Request: algorithms.Request{
			Datasets: []string{"edsd"},
			Y:        []string{"minimentalstate"},
			X:        []string{"lefthippocampus"},
		},
	}
	var exp Experiment
	if code := postJSON(t, ts.URL+"/experiments", req, &exp); code != 201 {
		t.Fatalf("create = %d", code)
	}
	if exp.Status != "pending" && exp.Status != "running" {
		t.Fatalf("initial status = %q", exp.Status)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	final, err := s.WaitForExperiment(ctx, exp.UUID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != "success" {
		t.Fatalf("status = %q err = %q", final.Status, final.Error)
	}
	var result map[string]any
	if err := json.Unmarshal(final.Result, &result); err != nil {
		t.Fatal(err)
	}
	model := result["model"].(map[string]any)
	coefs := model["coefficients"].([]any)
	if len(coefs) != 2 {
		t.Fatalf("coefficients = %d", len(coefs))
	}

	// Polling endpoint agrees.
	var fetched Experiment
	if code := getJSON(t, ts.URL+"/experiments/"+exp.UUID, &fetched); code != 200 {
		t.Fatalf("get = %d", code)
	}
	if fetched.Status != "success" {
		t.Fatalf("fetched status = %q", fetched.Status)
	}

	var list []Experiment
	getJSON(t, ts.URL+"/experiments", &list)
	if len(list) != 1 || list[0].UUID != exp.UUID {
		t.Fatalf("list = %+v", list)
	}
}

// undefinedCellServer serves two hospitals whose data leaves a cell of
// every covered algorithm undefined: group "b" is censored too early for
// its survival to reach 0.5 (no median), "flat" is constant (no
// correlation), and site-b never recorded "sparse" (an empty group).
func undefinedCellServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	schema := engine.Schema{
		{Name: "row_id", Type: engine.Int64}, {Name: "dataset", Type: engine.String},
		{Name: "time", Type: engine.Float64}, {Name: "event", Type: engine.Float64},
		{Name: "grp", Type: engine.String}, {Name: "sex", Type: engine.String},
		{Name: "y", Type: engine.Float64}, {Name: "flat", Type: engine.Float64},
		{Name: "sparse", Type: engine.Float64},
	}
	var clients []federation.WorkerClient
	for w, site := range []string{"site-a", "site-b"} {
		tab := engine.NewTable(schema)
		for i := 0; i < 40; i++ {
			grp, sex, event := "a", "F", 1.0
			if i%2 == 1 {
				grp, event = "b", float64(i%8/7) // one event in eight
			}
			if i%4 >= 2 {
				sex = "M"
			}
			var sparse any
			if w == 0 {
				sparse = float64(i)
			}
			if err := tab.AppendRow(int64(w*40+i), site, float64(1+i%10), event, grp, sex,
				float64(i%7)+float64(w), 3.0, sparse); err != nil {
				t.Fatal(err)
			}
		}
		db := engine.NewDB()
		db.RegisterTable(federation.DataTable, tab)
		clients = append(clients, federation.NewWorker(fmt.Sprintf("w%d", w), db))
	}
	m, err := federation.NewMaster(clients, nil, federation.Security{})
	if err != nil {
		t.Fatal(err)
	}
	runner := queue.NewRunner(queue.NewBroker(0, 0), 2)
	t.Cleanup(runner.Close)
	s := NewServer(m, catalogue.Default(), runner)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestUndefinedCellsOverREST: a statistic that is undefined (NaN, ±Inf) used
// to fail json.Marshal of the whole result, turning a successful experiment
// into status "error". Each algorithm must complete over REST and carry JSON
// null in exactly the undefined cell.
func TestUndefinedCellsOverREST(t *testing.T) {
	s, ts := undefinedCellServer(t)
	sites := []string{"site-a", "site-b"}
	// cell digs the value that must be null, and one that must not, out of
	// the decoded result.
	for _, tc := range []struct {
		req  ExperimentRequest
		cell func(result map[string]any) (null, defined any)
	}{
		{ExperimentRequest{Algorithm: "anova_oneway", Request: algorithms.Request{
			Datasets: sites, Y: []string{"y"}, X: []string{"grp"},
			Parameters: map[string]any{"levels": []any{"a", "b"}},
		}}, func(r map[string]any) (any, any) {
			table := r["table"].([]any)
			return table[len(table)-1].(map[string]any)["f"], table[0].(map[string]any)["f"]
		}},
		{ExperimentRequest{Algorithm: "anova_twoway", Request: algorithms.Request{
			Datasets: sites, Y: []string{"y"}, X: []string{"grp", "sex"},
			Parameters: map[string]any{"levels": map[string]any{"grp": []any{"a", "b"}, "sex": []any{"F", "M"}}},
		}}, func(r map[string]any) (any, any) {
			table := r["table"].([]any)
			return table[len(table)-1].(map[string]any)["p_value"], table[0].(map[string]any)["p_value"]
		}},
		{ExperimentRequest{Algorithm: "kaplan_meier", Request: algorithms.Request{
			Datasets: sites, Y: []string{"time", "event"}, X: []string{"grp"},
			Parameters: map[string]any{"groups": []any{"a", "b"}},
		}}, func(r map[string]any) (any, any) {
			curves := r["curves"].([]any)
			return curves[1].(map[string]any)["median"], curves[0].(map[string]any)["median"]
		}},
		{ExperimentRequest{Algorithm: "descriptive_stats", Request: algorithms.Request{
			Datasets: sites, Y: []string{"sparse"},
		}}, func(r map[string]any) (any, any) {
			ds := r["datasets"].(map[string]any)
			return ds["site-b"].([]any)[0].(map[string]any)["mean"], ds["site-a"].([]any)[0].(map[string]any)["mean"]
		}},
		{ExperimentRequest{Algorithm: "pearson_correlation", Request: algorithms.Request{
			Datasets: sites, Y: []string{"y"}, X: []string{"flat", "time"},
		}}, func(r map[string]any) (any, any) {
			pairs := r["correlations"].([]any)
			return pairs[0].(map[string]any)["r"], pairs[1].(map[string]any)["r"]
		}},
	} {
		alg := tc.req.Algorithm
		var exp Experiment
		if code := postJSON(t, ts.URL+"/experiments", tc.req, &exp); code != 201 {
			t.Fatalf("%s: create = %d", alg, code)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := s.WaitForExperiment(ctx, exp.UUID)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		var final Experiment
		if code := getJSON(t, ts.URL+"/experiments/"+exp.UUID, &final); code != 200 {
			t.Fatalf("%s: get = %d", alg, code)
		}
		if final.Status != "success" {
			t.Errorf("%s: status = %q err = %q", alg, final.Status, final.Error)
			continue
		}
		var result map[string]any
		if err := json.Unmarshal(final.Result, &result); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if null, defined := tc.cell(result); null != nil || defined == nil {
			t.Errorf("%s: undefined cell = %v (want null), defined cell = %v (want a number)\n%s",
				alg, null, defined, final.Result)
		}
	}
}

func TestExperimentValidation(t *testing.T) {
	_, ts := testServer(t)
	// Unknown algorithm.
	code := postJSON(t, ts.URL+"/experiments", ExperimentRequest{Algorithm: "nope"}, nil)
	if code != 422 {
		t.Fatalf("unknown algorithm = %d", code)
	}
	// Unknown dataset.
	code = postJSON(t, ts.URL+"/experiments", ExperimentRequest{
		Algorithm: "descriptive_stats",
		Request:   algorithms.Request{Datasets: []string{"ghost"}, Y: []string{"ab42"}},
	}, nil)
	if code != 422 {
		t.Fatalf("unknown dataset = %d", code)
	}
	// Malformed body.
	resp, err := http.Post(ts.URL+"/experiments", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed body = %d", resp.StatusCode)
	}
	// Unknown experiment id.
	if code := getJSON(t, ts.URL+"/experiments/ghost", nil); code != 404 {
		t.Fatalf("unknown experiment = %d", code)
	}
}

func TestExperimentAlgorithmError(t *testing.T) {
	s, ts := testServer(t)
	// linear_regression without X → algorithm-level validation error,
	// recorded on the experiment (not an HTTP failure).
	var exp Experiment
	code := postJSON(t, ts.URL+"/experiments", ExperimentRequest{
		Algorithm: "linear_regression",
		Request:   algorithms.Request{Datasets: []string{"edsd"}, Y: []string{"ab42"}},
	}, &exp)
	if code != 201 {
		t.Fatalf("create = %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	final, err := s.WaitForExperiment(ctx, exp.UUID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != "error" || final.Error == "" {
		t.Fatalf("status = %q error = %q", final.Status, final.Error)
	}
}

// runToEnd submits req and waits for its experiment to finish.
func runToEnd(t *testing.T, s *Server, ts *httptest.Server, req ExperimentRequest) *Experiment {
	t.Helper()
	var exp Experiment
	if code := postJSON(t, ts.URL+"/experiments", req, &exp); code != 201 {
		t.Fatalf("create %s = %d", req.Algorithm, code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := s.WaitForExperiment(ctx, exp.UUID)
	if err != nil {
		t.Fatal(err)
	}
	return final
}

// TestCartRejectsBadBins: a cart experiment asking for fewer than one bin
// ends in an error naming the parameter (-3 used to panic the server, 0 to
// fail encoding a NaN), and the server goes on to run the next experiment.
func TestCartRejectsBadBins(t *testing.T) {
	s, ts := testServer(t)
	for _, bins := range []int{-3, 0} {
		final := runToEnd(t, s, ts, ExperimentRequest{Algorithm: "cart", Request: algorithms.Request{
			Datasets: []string{"edsd"}, Y: []string{"ab42"}, X: []string{"p_tau"},
			Parameters: map[string]any{"bins": bins},
		}})
		if final.Status != "error" || final.Error != "algorithms: bins must be >= 1" {
			t.Fatalf("bins=%d: status %q, error %q", bins, final.Status, final.Error)
		}
	}
	final := runToEnd(t, s, ts, ExperimentRequest{Algorithm: "descriptive_stats",
		Request: algorithms.Request{Datasets: []string{"edsd"}, Y: []string{"ab42"}}})
	if final.Status != "success" {
		t.Fatalf("next experiment: %q (%s)", final.Status, final.Error)
	}
}

// panicking is an algorithm whose run panics on the master.
type panicking struct{}

func (panicking) Spec() algorithms.Spec {
	return algorithms.Spec{Name: "test_panic", Label: "Panics", Y: algorithms.VarSpec{Min: 1}}
}

func (panicking) Run(*federation.Session, algorithms.Request) (algorithms.Result, error) {
	panic("kaboom")
}

func init() { algorithms.Register(panicking{}) }

// TestPanickingAlgorithmFailsExperiment: an algorithm that panics ends its
// experiment in "error" with the panic's text and its task in FAILURE, and
// the server runs the next experiment.
func TestPanickingAlgorithmFailsExperiment(t *testing.T) {
	s, ts := testServer(t)
	final := runToEnd(t, s, ts, ExperimentRequest{Algorithm: "test_panic",
		Request: algorithms.Request{Datasets: []string{"edsd"}, Y: []string{"ab42"}}})
	if final.Status != "error" || !strings.Contains(final.Error, "kaboom") || final.Finished == nil {
		t.Fatalf("status %q, error %q, finished %v", final.Status, final.Error, final.Finished)
	}
	// The task ends just after the experiment settles.
	var task *queue.TaskInfo
	for deadline := time.Now().Add(5 * time.Second); task == nil && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if tasks := s.Runner.List(); len(tasks) == 1 && tasks[0].State != queue.Started {
			task = tasks[0]
		}
	}
	if task == nil || task.State != queue.Failure || task.Error != final.Error {
		t.Fatalf("task %+v, want FAILURE carrying %q", task, final.Error)
	}
	next := runToEnd(t, s, ts, ExperimentRequest{Algorithm: "descriptive_stats",
		Request: algorithms.Request{Datasets: []string{"edsd"}, Y: []string{"ab42"}}})
	if next.Status != "success" {
		t.Fatalf("next experiment: %q (%s)", next.Status, next.Error)
	}
}

func TestConcurrentExperiments(t *testing.T) {
	s, ts := testServer(t)
	var uuids []string
	for i := 0; i < 4; i++ {
		var exp Experiment
		postJSON(t, ts.URL+"/experiments", ExperimentRequest{
			Name:      fmt.Sprintf("desc-%d", i),
			Algorithm: "descriptive_stats",
			Request: algorithms.Request{
				Datasets: []string{"edsd"},
				Y:        []string{"ab42", "p_tau"},
			},
		}, &exp)
		uuids = append(uuids, exp.UUID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range uuids {
		final, err := s.WaitForExperiment(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if final.Status != "success" {
			t.Fatalf("%s: %q (%s)", id, final.Status, final.Error)
		}
	}
}

// holdRunner gives s a one-goroutine runner whose goroutine is held until
// the test ends, so whatever s submits stays pending.
func holdRunner(t *testing.T, s *Server) {
	t.Helper()
	runner := queue.NewRunner(queue.NewBroker(0, 0), 1)
	t.Cleanup(runner.Close)
	started := make(chan struct{})
	runner.Submit("hold", func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, nil
	})
	<-started
	s.Runner = runner
}

// TestWaitWakesOnAbortPending: a waiter parked on an experiment that no
// runner will pick up returns the terminal snapshot as soon as
// AbortPending settles it, without polling.
func TestWaitWakesOnAbortPending(t *testing.T) {
	s, ts := testServer(t)
	holdRunner(t, s) // the experiment stays pending
	var exp Experiment
	if code := postJSON(t, ts.URL+"/experiments", ExperimentRequest{
		Algorithm: "descriptive_stats",
		Request:   algorithms.Request{Datasets: []string{"edsd"}, Y: []string{"ab42"}},
	}, &exp); code != 201 {
		t.Fatalf("create = %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	type waited struct {
		exp *Experiment
		err error
	}
	ch := make(chan waited, 1)
	go func() {
		e, err := s.WaitForExperiment(ctx, exp.UUID)
		ch <- waited{e, err}
	}()
	select {
	case w := <-ch:
		t.Fatalf("waiter returned before the experiment settled: %+v, %v", w.exp, w.err)
	case <-time.After(20 * time.Millisecond):
	}
	if n := s.AbortPending("test shutdown"); n != 1 {
		t.Fatalf("AbortPending settled %d records, want 1", n)
	}
	w := <-ch
	if w.err != nil || w.exp.Status != "error" || w.exp.Error != "test shutdown" || w.exp.Finished == nil {
		t.Fatalf("waiter got %+v, %v; want the aborted terminal snapshot", w.exp, w.err)
	}
}

// TestExperimentRetentionBounded: past retainFinished finished experiments
// (and, apart, finished workflows) the oldest finished record goes first
// and its uuid answers 404 on GET and /trace, while a record still in
// flight survives any number of finishes.
func TestExperimentRetentionBounded(t *testing.T) {
	s, ts := testServer(t)
	inflight := &Experiment{UUID: "exp-inflight", Status: "running", done: make(chan struct{})}
	s.mu.Lock()
	s.experiments[inflight.UUID] = inflight
	s.mu.Unlock()

	const extra = 3
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	h := s.Handler()
	run := func(path string, body any, wait func(string) error) []string {
		var uuids []string
		for i := 0; i < retainFinished+extra; i++ {
			// Straight into the handler: a thousand loopback round trips
			// would dominate the test.
			doc, _ := json.Marshal(body)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(doc)))
			var created struct{ UUID string }
			if err := json.Unmarshal(rec.Body.Bytes(), &created); rec.Code != http.StatusCreated || err != nil {
				t.Fatalf("POST %s #%d = %d: %s", path, i, rec.Code, rec.Body)
			}
			if err := wait(created.UUID); err != nil {
				t.Fatal(err)
			}
			uuids = append(uuids, created.UUID)
			// The first record is a real result; the rest fail fast (no Y).
			body = withoutY(body)
		}
		return uuids
	}
	exps := run("/experiments", ExperimentRequest{Algorithm: "descriptive_stats",
		Request: algorithms.Request{Datasets: []string{"edsd"}, Y: []string{"ab42"}}},
		func(uuid string) error { _, err := s.WaitForExperiment(ctx, uuid); return err })
	wfs := run("/workflows", WorkflowRequest{Steps: []WorkflowStep{{Algorithm: "descriptive_stats",
		Request: algorithms.Request{Datasets: []string{"edsd"}, Y: []string{"ab42"}}}}},
		func(uuid string) error { _, err := s.WaitForWorkflow(ctx, uuid); return err })

	s.mu.Lock()
	nExp, nWf := len(s.experiments), len(s.workflows)
	s.mu.Unlock()
	if nExp != retainFinished+1 || nWf != retainFinished {
		t.Fatalf("kept %d experiments and %d workflows, want %d+1 in flight and %d", nExp, nWf, retainFinished, retainFinished)
	}
	for i, uuid := range exps {
		want := http.StatusOK
		if i < extra {
			want = http.StatusNotFound // the oldest finished go first
		} else if i > extra && i < len(exps)-1 {
			continue
		}
		if code := getJSON(t, ts.URL+"/experiments/"+uuid, nil); code != want {
			t.Fatalf("GET experiment #%d = %d, want %d", i, code, want)
		}
		if code := getJSON(t, ts.URL+"/experiments/"+uuid+"/trace", nil); code != want {
			t.Fatalf("GET experiment #%d trace = %d, want %d", i, code, want)
		}
	}
	for i, uuid := range wfs[:extra+1] {
		want := http.StatusOK
		if i < extra {
			want = http.StatusNotFound
		}
		if code := getJSON(t, ts.URL+"/workflows/"+uuid, nil); code != want {
			t.Fatalf("GET workflow #%d = %d, want %d", i, code, want)
		}
	}
	var got Experiment
	if code := getJSON(t, ts.URL+"/experiments/"+inflight.UUID, &got); code != http.StatusOK || got.Status != "running" {
		t.Fatalf("in-flight record: HTTP %d, status %q", code, got.Status)
	}
}

// withoutY strips the variables from an experiment or workflow request, so
// its run fails at once.
func withoutY(body any) any {
	switch b := body.(type) {
	case ExperimentRequest:
		b.Request.Y = nil
		return b
	case WorkflowRequest:
		b.Steps = []WorkflowStep{{Algorithm: b.Steps[0].Algorithm, Request: algorithms.Request{Datasets: b.Steps[0].Request.Datasets}}}
		return b
	}
	return body
}
