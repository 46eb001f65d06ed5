package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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
