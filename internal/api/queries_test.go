package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"mip/internal/engine"
	"mip/internal/obs"
)

func TestExplainEndpoint(t *testing.T) {
	_, ts := testServer(t)

	var doc struct {
		Datasets []string `json:"datasets"`
		Plan     []string `json:"plan"`
	}
	code := postJSON(t, ts.URL+"/queries/explain",
		map[string]any{"sql": "SELECT avg(subjectageyears) AS m FROM data", "analyze": true}, &doc)
	if code != http.StatusOK {
		t.Fatalf("explain status = %d", code)
	}
	joined := strings.Join(doc.Plan, "\n")
	if !strings.Contains(joined, "merge pushdown data") || !strings.Contains(joined, "rows_out=") {
		t.Errorf("unexpected analyzed plan:\n%s", joined)
	}
	if len(doc.Datasets) == 0 {
		t.Error("explain did not report the datasets it planned over")
	}

	if code := postJSON(t, ts.URL+"/queries/explain", map[string]any{"analyze": true}, nil); code != http.StatusBadRequest {
		t.Errorf("missing sql status = %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/queries/explain",
		map[string]any{"sql": "SELECT subjectageyears FROM data", "datasets": []string{"nope"}}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown dataset status = %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/queries/explain",
		map[string]any{"sql": "SELECT bogus syntax"}, nil); code != http.StatusUnprocessableEntity {
		t.Errorf("bad sql status = %d, want 422", code)
	}
}

func TestSlowQueriesEndpoint(t *testing.T) {
	_, ts := testServer(t)
	old := obs.DefaultSlowLog
	obs.DefaultSlowLog = obs.NewSlowLog(8, time.Nanosecond)
	defer func() { obs.DefaultSlowLog = old }()

	// Run something through the engine so the log has an entry.
	if code := postJSON(t, ts.URL+"/queries/explain",
		map[string]any{"sql": "SELECT count(*) AS n FROM data", "analyze": true}, nil); code != http.StatusOK {
		t.Fatalf("explain status = %d", code)
	}

	var doc struct {
		ThresholdSeconds float64           `json:"threshold_seconds"`
		Queries          []obs.QueryRecord `json:"queries"`
	}
	if code := getJSON(t, ts.URL+"/queries/slow", &doc); code != http.StatusOK {
		t.Fatalf("slow status = %d", code)
	}
	if len(doc.Queries) == 0 {
		t.Fatal("slow log is empty after a traced query")
	}
	found := false
	for _, q := range doc.Queries {
		if strings.Contains(q.SQL, "count(*)") {
			found = true
		}
	}
	if !found {
		t.Errorf("slow log does not contain the executed query: %+v", doc.Queries)
	}
}

// doDelete issues a DELETE and decodes the JSON body into out when non-nil.
func doDelete(t *testing.T, url string, out any) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
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

// blockingAPIPart parks a merge-part query until its context dies, giving
// the endpoint tests a statement that stays active until killed.
type blockingAPIPart struct {
	started chan struct{}
	once    sync.Once
}

func (p *blockingAPIPart) PartName() string { return "bp" }
func (p *blockingAPIPart) Query(string) (*engine.Table, error) {
	return nil, errors.New("blockingAPIPart needs QueryCtx")
}
func (p *blockingAPIPart) QueryCtx(ctx context.Context, _ string) (*engine.Table, error) {
	p.once.Do(func() { close(p.started) })
	<-ctx.Done()
	return nil, context.Cause(ctx)
}

// TestCacheEndpointsUsePlatformPlanCache: when the platform wires its DBs
// to a private plan cache (Config.PlanCacheSize), GET /cache must report
// that cache — not the unused process default — and POST /cache/flush must
// flush it.
func TestCacheEndpointsUsePlatformPlanCache(t *testing.T) {
	s, ts := testServer(t)
	private := engine.NewPlanCache(16)
	s.SetPlanCache(private)

	// Populate the private cache through a DB wired to it, the way the
	// platform's worker DBs are.
	db := engine.NewDB(engine.WithPlanCache(private))
	tab := engine.NewTable(engine.Schema{{Name: "v", Type: engine.Float64}})
	if err := tab.AppendRow(1.0); err != nil {
		t.Fatal(err)
	}
	db.RegisterTable("t", tab)
	if _, err := db.Query(`SELECT sum(v) AS s FROM t`); err != nil {
		t.Fatal(err)
	}
	if n := private.Stats().Entries; n != 1 {
		t.Fatalf("private cache entries = %d, want 1", n)
	}

	var stats struct {
		Plan engine.PlanCacheStats `json:"plan"`
	}
	if code := getJSON(t, ts.URL+"/cache", &stats); code != http.StatusOK {
		t.Fatalf("GET /cache status = %d", code)
	}
	if stats.Plan.Entries != 1 || stats.Plan.Capacity != 16 {
		t.Fatalf("GET /cache reports %+v, want the private cache (1 entry, capacity 16)", stats.Plan)
	}

	var flushed struct {
		Plan int `json:"flushed_plan_entries"`
	}
	if code := postJSON(t, ts.URL+"/cache/flush", struct{}{}, &flushed); code != http.StatusOK {
		t.Fatalf("POST /cache/flush status = %d", code)
	}
	if flushed.Plan != 1 {
		t.Fatalf("flush reported %d plan entries, want 1", flushed.Plan)
	}
	if n := private.Stats().Entries; n != 0 {
		t.Fatalf("private cache not flushed: %d entries", n)
	}
}

func TestActiveQueriesAndKillEndpoints(t *testing.T) {
	_, ts := testServer(t)

	// Error paths first: malformed and unknown ids.
	if code := doDelete(t, ts.URL+"/queries/abc", nil); code != http.StatusBadRequest {
		t.Errorf("DELETE /queries/abc status = %d, want 400", code)
	}
	if code := doDelete(t, ts.URL+"/queries/999999999", nil); code != http.StatusNotFound {
		t.Errorf("DELETE /queries/999999999 status = %d, want 404", code)
	}

	// Park a statement in the process-wide registry and watch it through
	// the API: it must appear in /queries/active, die on DELETE, and
	// disappear from the listing.
	db := engine.NewDB()
	bp := &blockingAPIPart{started: make(chan struct{})}
	db.RegisterMerge("apislow", &engine.MergeTable{
		Schema:    engine.Schema{{Name: "age", Type: engine.Float64}},
		TableName: "apislow",
		Parts:     []engine.Part{bp},
	})
	done := make(chan error, 1)
	go func() {
		_, err := db.Query(`SELECT avg(age) AS a FROM apislow`)
		done <- err
	}()
	select {
	case <-bp.started:
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached the blocking part")
	}

	var active struct {
		Queries []engine.QueryInfo `json:"queries"`
	}
	if code := getJSON(t, ts.URL+"/queries/active", &active); code != http.StatusOK {
		t.Fatalf("GET /queries/active status = %d", code)
	}
	var id int64
	for _, q := range active.Queries {
		if strings.Contains(q.SQL, "apislow") {
			id = q.ID
		}
	}
	if id == 0 {
		t.Fatalf("blocked query not listed in /queries/active: %+v", active.Queries)
	}

	var killed struct {
		Killed int64 `json:"killed"`
	}
	if code := doDelete(t, fmt.Sprintf("%s/queries/%d", ts.URL, id), &killed); code != http.StatusOK {
		t.Fatalf("DELETE /queries/%d status = %d", id, code)
	}
	if killed.Killed != id {
		t.Errorf("kill response id = %d, want %d", killed.Killed, id)
	}
	select {
	case err := <-done:
		if !errors.Is(err, engine.ErrQueryCancelled) {
			t.Fatalf("killed query error = %v, want ErrQueryCancelled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query did not unwind after DELETE")
	}

	if code := getJSON(t, ts.URL+"/queries/active", &active); code != http.StatusOK {
		t.Fatalf("GET /queries/active status = %d", code)
	}
	for _, q := range active.Queries {
		if q.ID == id {
			t.Fatalf("killed query %d still listed as active", id)
		}
	}
}
