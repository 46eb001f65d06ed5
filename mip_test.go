package mip

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	apiserver "mip/internal/api"
)

func demoPlatform(t *testing.T, sec SecurityMode) *Platform {
	t.Helper()
	var workers []WorkerConfig
	for i, id := range []string{"hospital-a", "hospital-b", "hospital-c"} {
		tab, err := GenerateCohort(SynthSpec{Dataset: "edsd", Rows: 150, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, WorkerConfig{ID: id, Data: tab})
	}
	p, err := New(Config{Workers: workers, Security: sec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestPlatformLifecycle(t *testing.T) {
	p := demoPlatform(t, SecurityOff)
	if len(p.Algorithms()) < 15 {
		t.Fatalf("algorithms = %d", len(p.Algorithms()))
	}
	ds := p.Datasets()
	if len(ds["edsd"]) != 3 {
		t.Fatalf("datasets = %v", ds)
	}
}

func TestPlatformRunExperiment(t *testing.T) {
	p := demoPlatform(t, SecurityOff)
	res, err := p.RunExperiment("pearson_correlation", Request{
		Datasets: []string{"edsd"},
		Y:        []string{"minimentalstate"},
		X:        []string{"lefthippocampus"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res["correlations"] == nil {
		t.Fatal("no correlations in result")
	}
	if _, err := p.RunExperiment("ghost", Request{}); err == nil ||
		!strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("unknown algorithm error = %v", err)
	}
}

func TestPlatformSecureMatchesPlain(t *testing.T) {
	plain := demoPlatform(t, SecurityOff)
	secure := demoPlatform(t, SecuritySMPCShamir)
	req := Request{
		Datasets: []string{"edsd"},
		Y:        []string{"ab42"},
	}
	rp, err := plain.RunExperiment("ttest_onesample", req)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := secure.RunExperiment("ttest_onesample", req)
	if err != nil {
		t.Fatal(err)
	}
	mp := rp["mean"].(float64)
	ms := rs["mean"].(float64)
	if math.Abs(mp-ms) > 1e-3*(1+math.Abs(mp)) {
		t.Fatalf("secure mean %v vs plain %v", ms, mp)
	}
	if msgs, bytes := secure.SMPCStats(); msgs == 0 || bytes == 0 {
		t.Fatal("secure run must produce SMPC traffic")
	}
	if msgs, _ := plain.SMPCStats(); msgs != 0 {
		t.Fatal("plain run must not produce SMPC traffic")
	}
}

func TestPlatformMergeQuery(t *testing.T) {
	p := demoPlatform(t, SecurityOff)
	res, err := p.MergeQuery(nil, "SELECT count(*) AS n FROM data")
	if err != nil {
		t.Fatal(err)
	}
	n := res.Col(0).CastFloat64().Float64s()[0]
	if n != 450 {
		t.Fatalf("merge count = %v", n)
	}
}

func TestPlatformDPNoise(t *testing.T) {
	var workers []WorkerConfig
	for i := 0; i < 2; i++ {
		tab, _ := GenerateCohort(SynthSpec{Dataset: "edsd", Rows: 200, Seed: int64(i + 9)})
		workers = append(workers, WorkerConfig{ID: string(rune('a' + i)), Data: tab})
	}
	p, err := New(Config{
		Workers: workers, Security: SecuritySMPCShamir,
		NoiseKind: NoiseGaussian, NoiseScale: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Two identical runs should differ (noise) but stay near the truth.
	r1, err := p.RunExperiment("ttest_onesample", Request{Datasets: []string{"edsd"}, Y: []string{"ab42"}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.RunExperiment("ttest_onesample", Request{Datasets: []string{"edsd"}, Y: []string{"ab42"}})
	if err != nil {
		t.Fatal(err)
	}
	m1 := r1["mean"].(float64)
	m2 := r2["mean"].(float64)
	if m1 == m2 {
		t.Fatal("DP noise should make repeated runs differ")
	}
	if math.Abs(m1-m2) > 100 {
		t.Fatalf("noise too large: %v vs %v", m1, m2)
	}
}

func TestPlatformValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config must fail")
	}
	if _, err := New(Config{Workers: []WorkerConfig{{ID: "x"}}}); err == nil {
		t.Fatal("worker without data must fail")
	}
}

func TestHarmonizeCSV(t *testing.T) {
	csv := "age_years,dx\n70,alzheimer\n65,control\n72,alzheimer\n"
	m := ETLMapping{
		Dataset: "siteZ",
		Rules: []ETLRule{
			{Source: "age_years", Target: "subjectageyears"},
			{Source: "dx", Target: "alzheimerbroadcategory",
				Recode: map[string]string{"alzheimer": "AD", "control": "CN"}},
		},
	}
	tab, report, err := HarmonizeCSV(strings.NewReader(csv), m, "dementia")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 3 || report.RowsOut != 3 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	dx, _ := tab.StringColumn("alzheimerbroadcategory")
	if dx[0] != "AD" || dx[1] != "CN" {
		t.Fatalf("recoded dx = %v", dx)
	}
}

func TestGenerators(t *testing.T) {
	uc, err := GenerateUseCase(1)
	if err != nil {
		t.Fatal(err)
	}
	if uc["brescia"].NumRows() != 1960 {
		t.Fatalf("brescia rows = %d", uc["brescia"].NumRows())
	}
	sv, err := GenerateSurvival(SurvivalSpec{Dataset: "e", Rows: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sv.NumRows() != 100 {
		t.Fatalf("survival rows = %d", sv.NumRows())
	}
}

func TestPrivacyBudgetAccounting(t *testing.T) {
	var workers []WorkerConfig
	tab, _ := GenerateCohort(SynthSpec{Dataset: "edsd", Rows: 120, Seed: 2})
	tab2, _ := GenerateCohort(SynthSpec{Dataset: "edsd", Rows: 120, Seed: 3})
	workers = append(workers,
		WorkerConfig{ID: "a", Data: tab}, WorkerConfig{ID: "b", Data: tab2})
	p, err := New(Config{
		Workers: workers, Security: SecuritySMPCShamir,
		NoiseKind: NoiseGaussian, NoiseScale: 1,
		PrivacyBudget: 0.3, EpsilonPerRun: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	req := Request{Datasets: []string{"edsd"}, Y: []string{"ab42"}}
	for i := 0; i < 3; i++ {
		if _, err := p.RunExperiment("ttest_onesample", req); err != nil {
			t.Fatalf("run %d within budget failed: %v", i, err)
		}
	}
	if _, err := p.RunExperiment("ttest_onesample", req); err == nil {
		t.Fatal("exhausted budget must refuse the run")
	}
	eps, _ := p.PrivacySpent()
	if math.Abs(eps-0.3) > 1e-9 {
		t.Fatalf("spent eps = %v", eps)
	}
	// Noiseless platforms never spend.
	p2 := demoPlatform(t, SecurityOff)
	p2.RunExperiment("ttest_onesample", req)
	if e, _ := p2.PrivacySpent(); e != 0 {
		t.Fatalf("noiseless platform spent %v", e)
	}
}

// TestCacheEndpointReportsPlatformPlanCache: GET /cache on a platform's
// handler reports the plan cache its worker and merge databases resolve
// statements through, and POST /cache/flush empties it. The cache is
// shared by the whole process, so hits are compared as deltas.
func TestCacheEndpointReportsPlatformPlanCache(t *testing.T) {
	p := demoPlatform(t, SecurityOff)
	h := p.Handler()
	stats := func() apiserver.CacheStatsResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cache", nil))
		var out apiserver.CacheStatsResponse
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /cache status = %d", rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	const sql = "SELECT count(*) AS n, avg(ab42) AS m FROM data"
	if _, err := p.MergeQuery(nil, sql); err != nil {
		t.Fatal(err)
	}
	before := stats().Plan
	if _, err := p.MergeQuery(nil, sql); err != nil {
		t.Fatal(err)
	}
	after := stats().Plan
	if after.Hits-before.Hits < 1 {
		t.Fatalf("a repeated merge query moved plan-cache hits %d -> %d", before.Hits, after.Hits)
	}
	if after.Entries == 0 || after.Capacity != 256 {
		t.Fatalf("GET /cache plan = %+v, want entries in a 256-statement cache", after)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cache/flush", strings.NewReader("{}")))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /cache/flush status = %d", rec.Code)
	}
	var flushed apiserver.CacheFlushResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &flushed); err != nil {
		t.Fatal(err)
	}
	if flushed.Plan < 1 {
		t.Fatalf("flush reported %d plan entries, want at least 1", flushed.Plan)
	}
	if n := stats().Plan.Entries; n != 0 {
		t.Fatalf("plan cache holds %d entries after flush", n)
	}
}

// TestSpillDirChecked: a spill directory only takes effect under a memory
// limit, so New refuses one without it, and creates the directory at
// startup so an unusable path fails there rather than at a query's first
// spill.
func TestSpillDirChecked(t *testing.T) {
	tab, err := GenerateCohort(SynthSpec{Dataset: "edsd", Rows: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	workers := []WorkerConfig{{ID: "a", Data: tab}}
	base := t.TempDir()

	dir := filepath.Join(base, "spill", "runs")
	if _, err := New(Config{Workers: workers, QuerySpillDir: dir}); err == nil ||
		!strings.Contains(err.Error(), "QueryMemLimit") {
		t.Fatalf("spill dir without a memory limit: err = %v, want a QueryMemLimit error", err)
	}

	p, err := New(Config{Workers: workers, QuerySpillDir: dir, QueryMemLimit: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("spill dir not created at startup: %v", err)
	}

	file := filepath.Join(base, "file")
	if err := os.WriteFile(file, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Workers: workers, QuerySpillDir: filepath.Join(file, "runs"), QueryMemLimit: 1 << 20}); err == nil {
		t.Fatal("a spill dir that cannot be created must fail New")
	}
}
