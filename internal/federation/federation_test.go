package federation

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"mip/internal/engine"
	"mip/internal/smpc"
)

func init() {
	// Test local step: per-column sums and count over the input relation.
	RegisterLocal("test_sums", func(wctx *WorkerCtx, data *engine.Table, kwargs Kwargs) (Transfer, error) {
		tr := Transfer{"n": float64(data.NumRows())}
		var vec []float64
		for i, col := range data.Schema() {
			if col.Type != engine.Float64 {
				continue
			}
			var s float64
			v := data.Col(i)
			for r := 0; r < v.Len(); r++ {
				if !v.IsNull(r) {
					s += v.Float64s()[r]
				}
			}
			vec = append(vec, s)
		}
		tr["sums"] = vec
		return tr, nil
	})
	// Test local step exercising loopback SQL.
	RegisterLocal("test_loopback", func(wctx *WorkerCtx, data *engine.Table, kwargs Kwargs) (Transfer, error) {
		t, err := wctx.Loopback("SELECT count(*) AS n FROM " + DataTable)
		if err != nil {
			return nil, err
		}
		return Transfer{"total": float64(t.Col(0).Int64s()[0])}, nil
	})
	// Test local step returning distinct times (for union tests).
	RegisterLocal("test_times", func(wctx *WorkerCtx, data *engine.Table, kwargs Kwargs) (Transfer, error) {
		seen := map[float64]struct{}{}
		v := data.ColByName("age").CastFloat64()
		for r := 0; r < v.Len(); r++ {
			if !v.IsNull(r) {
				seen[math.Floor(v.Float64s()[r]/10)] = struct{}{}
			}
		}
		var out []float64
		for x := range seen {
			out = append(out, x)
		}
		return Transfer{"times": out}, nil
	})
	RegisterGlobal("test_combine", func(state any, transfers []Transfer, kwargs Kwargs) (Transfer, any, error) {
		var total float64
		for _, t := range transfers {
			n, err := t.Float("n")
			if err != nil {
				return nil, nil, err
			}
			total += n
		}
		return Transfer{"grand_total": total}, total, nil
	})
}

// newWorkerDB builds a worker database holding `rows` patients of the given
// dataset with deterministic age/mmse values offset by base.
func newWorkerDB(t *testing.T, dataset string, rows int, base float64) *engine.DB {
	t.Helper()
	db := engine.NewDB()
	tab := engine.NewTable(engine.Schema{
		{Name: "dataset", Type: engine.String},
		{Name: "age", Type: engine.Float64},
		{Name: "mmse", Type: engine.Float64},
	})
	for i := 0; i < rows; i++ {
		var mmse any = base + float64(i%30)
		if i%13 == 0 {
			mmse = nil
		}
		if err := tab.AppendRow(dataset, 50+base+float64(i%40), mmse); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterTable(DataTable, tab)
	return db
}

func buildCluster(t *testing.T, scheme smpc.Scheme) *smpc.Cluster {
	t.Helper()
	c, err := smpc.NewCluster(smpc.Config{Scheme: scheme, Nodes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func buildFed(t *testing.T, secure bool) (*Master, []*Worker) {
	t.Helper()
	var cluster *smpc.Cluster
	if secure {
		cluster = buildCluster(t, smpc.FullThreshold)
	}
	var workers []*Worker
	var clients []WorkerClient
	for i, ds := range []string{"edsd", "edsd", "ppmi"} {
		db := newWorkerDB(t, ds, 40+10*i, float64(i))
		var w *Worker
		if secure {
			w = NewWorker(fmt.Sprintf("hosp%d", i), db, WithSMPC(cluster))
		} else {
			w = NewWorker(fmt.Sprintf("hosp%d", i), db)
		}
		workers = append(workers, w)
		clients = append(clients, w)
	}
	m, err := NewMaster(clients, cluster, Security{UseSMPC: secure})
	if err != nil {
		t.Fatal(err)
	}
	return m, workers
}

func TestAvailabilityTracking(t *testing.T) {
	m, _ := buildFed(t, false)
	av := m.Availability()
	if len(av["edsd"]) != 2 || len(av["ppmi"]) != 1 {
		t.Fatalf("availability = %v", av)
	}
	if ds := m.Datasets(); len(ds) != 2 || ds[0] != "edsd" || ds[1] != "ppmi" {
		t.Fatalf("datasets = %v", ds)
	}
	if ws := m.WorkersFor([]string{"ppmi"}); len(ws) != 1 || ws[0].ID() != "hosp2" {
		t.Fatal("WorkersFor(ppmi) wrong")
	}
	if ws := m.WorkersFor(nil); len(ws) != 3 {
		t.Fatal("WorkersFor(nil) should select all")
	}
}

func TestSessionScoping(t *testing.T) {
	m, _ := buildFed(t, false)
	s, err := m.NewSession([]string{"edsd"})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumWorkers() != 2 {
		t.Fatalf("session workers = %d", s.NumWorkers())
	}
	if _, err := m.NewSession([]string{"absent"}); err == nil {
		t.Fatal("unknown dataset should fail")
	}
}

func TestDataQuerySQL(t *testing.T) {
	m, _ := buildFed(t, false)
	s, _ := m.NewSession([]string{"edsd"})
	sql := s.DataQuery([]string{"age", "mmse"}, "age > 60", true)
	for _, want := range []string{"SELECT age, mmse FROM data", "dataset IN ('edsd')", "age IS NOT NULL", "mmse IS NOT NULL", "(age > 60)"} {
		if !strings.Contains(sql, want) {
			t.Fatalf("DataQuery = %q, missing %q", sql, want)
		}
	}
}

func TestLocalRunPlainAggregation(t *testing.T) {
	m, _ := buildFed(t, false)
	s, _ := m.NewSession(nil)
	transfers, err := s.LocalRun(LocalRunSpec{Func: "test_sums", Vars: []string{"age"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(transfers) != 3 {
		t.Fatalf("transfers = %d", len(transfers))
	}
	agg, err := AggregateSum(transfers, "n", "sums")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := agg.Float("n")
	if n != 40+50+60 {
		t.Fatalf("total n = %v", n)
	}
}

// The headline equivalence: SMPC aggregation must equal plain aggregation.
func TestSecureSumMatchesPlain(t *testing.T) {
	plainM, _ := buildFed(t, false)
	secureM, _ := buildFed(t, true)

	ps, _ := plainM.NewSession(nil)
	transfers, err := ps.LocalRun(LocalRunSpec{Func: "test_sums", Vars: []string{"age", "mmse"}})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := AggregateSum(transfers, "n", "sums")
	if err != nil {
		t.Fatal(err)
	}

	ss, _ := secureM.NewSession(nil)
	secure, err := ss.Sum(LocalRunSpec{Func: "test_sums", Vars: []string{"age", "mmse"}}, "n", "sums")
	if err != nil {
		t.Fatal(err)
	}

	pn, _ := plain.Float("n")
	sn, _ := secure.Float("n")
	if math.Abs(pn-sn) > 1e-6 {
		t.Fatalf("n: plain %v secure %v", pn, sn)
	}
	pv, _ := plain.Floats("sums")
	sv, _ := secure.Floats("sums")
	if len(pv) != len(sv) {
		t.Fatalf("sums length %d vs %d", len(pv), len(sv))
	}
	for i := range pv {
		if math.Abs(pv[i]-sv[i]) > 1e-4*(1+math.Abs(pv[i])) {
			t.Fatalf("sums[%d]: plain %v secure %v", i, pv[i], sv[i])
		}
	}
}

// Secure path with Shamir scheme too.
func TestSecureSumShamir(t *testing.T) {
	cluster := buildCluster(t, smpc.ShamirScheme)
	db := newWorkerDB(t, "edsd", 40, 0)
	db2 := newWorkerDB(t, "edsd", 40, 5)
	w1 := NewWorker("a", db, WithSMPC(cluster))
	w2 := NewWorker("b", db2, WithSMPC(cluster))
	m, err := NewMaster([]WorkerClient{w1, w2}, cluster, Security{UseSMPC: true})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := m.NewSession(nil)
	out, err := s.Sum(LocalRunSpec{Func: "test_sums", Vars: []string{"age"}}, "n")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := out.Float("n")
	if n != 80 {
		t.Fatalf("n = %v", n)
	}
}

func TestDisclosureControl(t *testing.T) {
	db := newWorkerDB(t, "tiny", 5, 0) // below DefaultMinRows
	w := NewWorker("tiny", db)
	m, err := NewMaster([]WorkerClient{w}, nil, Security{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := m.NewSession(nil)
	if _, err := s.LocalRun(LocalRunSpec{Func: "test_sums", Vars: []string{"age"}}); err == nil {
		t.Fatal("transfers from <minRows rows must be blocked")
	}
	// Zero rows is allowed (empty result, nothing to disclose).
	if _, err := s.LocalRun(LocalRunSpec{Func: "test_sums", Vars: []string{"age"}, Filter: "age > 10000"}); err != nil {
		t.Fatalf("zero-row step should pass: %v", err)
	}
	// Lower threshold unblocks.
	w2 := NewWorker("tiny2", newWorkerDB(t, "tiny", 5, 0), WithMinRows(2))
	m2, _ := NewMaster([]WorkerClient{w2}, nil, Security{})
	s2, _ := m2.NewSession(nil)
	if _, err := s2.LocalRun(LocalRunSpec{Func: "test_sums", Vars: []string{"age"}}); err != nil {
		t.Fatalf("minRows=2 should allow 5 rows: %v", err)
	}
}

func TestLoopbackFromLocalStep(t *testing.T) {
	m, _ := buildFed(t, false)
	s, _ := m.NewSession(nil)
	transfers, err := s.LocalRun(LocalRunSpec{Func: "test_loopback", Vars: []string{"age"}})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, tr := range transfers {
		n, _ := tr.Float("total")
		total += n
	}
	if total != 150 {
		t.Fatalf("loopback total = %v", total)
	}
}

func TestGlobalRun(t *testing.T) {
	m, _ := buildFed(t, false)
	s, _ := m.NewSession(nil)
	transfers, _ := s.LocalRun(LocalRunSpec{Func: "test_sums", Vars: []string{"age"}})
	out, err := s.GlobalRun("test_combine", transfers, nil)
	if err != nil {
		t.Fatal(err)
	}
	gt, _ := out.Float("grand_total")
	if gt != 150 {
		t.Fatalf("grand_total = %v", gt)
	}
	if s.GlobalState != 150.0 {
		t.Fatalf("global state = %v", s.GlobalState)
	}
	if _, err := s.GlobalRun("missing", nil, nil); err == nil {
		t.Fatal("unknown global func must error")
	}
}

func TestSecureUnion(t *testing.T) {
	for _, secure := range []bool{false, true} {
		m, _ := buildFed(t, secure)
		s, _ := m.NewSession(nil)
		times, err := s.SecureUnion(LocalRunSpec{Func: "test_times", Vars: []string{"age"}}, "times")
		if err != nil {
			t.Fatalf("secure=%v: %v", secure, err)
		}
		if len(times) == 0 {
			t.Fatalf("secure=%v: empty union", secure)
		}
		for i := 1; i < len(times); i++ {
			if times[i] <= times[i-1] {
				t.Fatalf("union not sorted/distinct: %v", times)
			}
		}
	}
}

func TestMergeQuery(t *testing.T) {
	m, _ := buildFed(t, false)
	res, err := m.MergeQuery(nil, "SELECT count(*) AS n, avg(age) AS m FROM data")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.ColByName("n").Value(0); fmt.Sprint(n) != "150" {
		t.Fatalf("merge count = %v", n)
	}
}

func TestUnknownLocalFunc(t *testing.T) {
	m, _ := buildFed(t, false)
	s, _ := m.NewSession(nil)
	if _, err := s.LocalRun(LocalRunSpec{Func: "ghost"}); err == nil {
		t.Fatal("unknown local func must error")
	}
}

func TestMasterValidation(t *testing.T) {
	if _, err := NewMaster(nil, nil, Security{}); err == nil {
		t.Fatal("empty workers must fail")
	}
	db := newWorkerDB(t, "d", 20, 0)
	w1 := NewWorker("same", db)
	w2 := NewWorker("same", newWorkerDB(t, "d", 20, 0))
	if _, err := NewMaster([]WorkerClient{w1, w2}, nil, Security{}); err == nil {
		t.Fatal("duplicate ids must fail")
	}
	if _, err := NewMaster([]WorkerClient{w1}, nil, Security{UseSMPC: true}); err == nil {
		t.Fatal("SMPC without cluster must fail")
	}
}

// Full HTTP transport: master drives workers through httptest servers, and
// results must match the in-process path.
func TestHTTPTransport(t *testing.T) {
	var clients []WorkerClient
	for i := 0; i < 3; i++ {
		db := newWorkerDB(t, "edsd", 40+10*i, float64(i))
		w := NewWorker(fmt.Sprintf("h%d", i), db)
		srv := httptest.NewServer((&WorkerServer{Worker: w, AllowRawQuery: true}).Handler())
		t.Cleanup(srv.Close)
		clients = append(clients, NewHTTPWorkerClient(w.ID(), srv.URL))
	}
	m, err := NewMaster(clients, nil, Security{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := m.NewSession([]string{"edsd"})
	transfers, err := s.LocalRun(LocalRunSpec{Func: "test_sums", Vars: []string{"age"}})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := AggregateSum(transfers, "n", "sums")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := agg.Float("n"); n != 150 {
		t.Fatalf("HTTP n = %v", n)
	}
	// Merge query over HTTP.
	res, err := m.MergeQuery(nil, "SELECT count(*) AS n FROM data")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Col(0).Value(0)) != "150" {
		t.Fatalf("HTTP merge count = %v", res.Col(0).Value(0))
	}
}

func TestHTTPRawQueryForbidden(t *testing.T) {
	db := newWorkerDB(t, "edsd", 40, 0)
	w := NewWorker("h", db)
	srv := httptest.NewServer((&WorkerServer{Worker: w, AllowRawQuery: false}).Handler())
	defer srv.Close()
	c := NewHTTPWorkerClient("h", srv.URL)
	if _, err := c.Query("SELECT * FROM data"); err == nil {
		t.Fatal("raw query must be forbidden")
	}
	// Local runs still work.
	resp, err := c.LocalRun(LocalRunRequest{JobID: "x", Func: "test_sums", DataQuery: "SELECT age FROM data", ShareToGlobal: true})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := resp.Transfer.Float("n"); n != 40 {
		t.Fatalf("n = %v", n)
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	tr := Transfer{
		"scalar": 3.5,
		"vec":    []float64{1, 2, 3},
		"mat":    [][]float64{{1, 2}, {3, 4}},
		"other":  "ignored",
	}
	flat, shapes, err := flattenNumeric(tr, []string{"scalar", "vec", "mat"})
	if err != nil {
		t.Fatal(err)
	}
	if len(flat) != 1+3+4 {
		t.Fatalf("flat len = %d", len(flat))
	}
	back, err := unflattenNumeric(flat, shapes)
	if err != nil {
		t.Fatal(err)
	}
	if back["scalar"] != 3.5 {
		t.Fatal("scalar lost")
	}
	v, _ := back.Floats("vec")
	if len(v) != 3 || v[2] != 3 {
		t.Fatal("vec lost")
	}
	mmat, _ := back.Matrix("mat")
	if mmat[1][1] != 4 {
		t.Fatal("mat lost")
	}
	if _, _, err := flattenNumeric(tr, []string{"missing"}); err == nil {
		t.Fatal("missing key must error")
	}
	if _, _, err := flattenNumeric(tr, []string{"other"}); err == nil {
		t.Fatal("non-numeric key must error")
	}
}

func TestGenerateStepSQL(t *testing.T) {
	db := newWorkerDB(t, "edsd", 20, 0)
	w := NewWorker("h", db)
	sql, err := w.GenerateStepSQL("test_sums", "SELECT age FROM data")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "CREATE OR REPLACE FUNCTION fed_test_sums") {
		t.Fatalf("generated SQL:\n%s", sql)
	}
	if _, err := w.GenerateStepSQL("ghost", ""); err == nil {
		t.Fatal("unknown func must error")
	}
}

// HTTP transport combined with SMPC: workers behind HTTP servers secret-
// share into the (in-process) cluster; the master only ever receives shape
// metadata over the wire.
func TestHTTPTransportWithSMPC(t *testing.T) {
	cluster := buildCluster(t, smpc.FullThreshold)
	var clients []WorkerClient
	for i := 0; i < 3; i++ {
		db := newWorkerDB(t, "edsd", 40+5*i, float64(i))
		w := NewWorker(fmt.Sprintf("s%d", i), db, WithSMPC(cluster))
		srv := httptest.NewServer((&WorkerServer{Worker: w}).Handler())
		t.Cleanup(srv.Close)
		clients = append(clients, NewHTTPWorkerClient(w.ID(), srv.URL))
	}
	m, err := NewMaster(clients, cluster, Security{UseSMPC: true})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := m.NewSession(nil)
	out, err := s.Sum(LocalRunSpec{Func: "test_sums", Vars: []string{"age"}}, "n")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := out.Float("n")
	if n != 40+45+50 {
		t.Fatalf("secure HTTP n = %v", n)
	}
}

// Failure injection: one dead worker fails the round with a clear error
// naming the worker.
func TestWorkerFailurePropagates(t *testing.T) {
	db := newWorkerDB(t, "edsd", 40, 0)
	good := NewWorker("good", db)
	srv := httptest.NewServer((&WorkerServer{Worker: NewWorker("dead", newWorkerDB(t, "edsd", 40, 1))}).Handler())
	deadClient := NewHTTPWorkerClient("dead", srv.URL)
	srv.Close() // kill it: connections now refused
	m, err := NewMaster([]WorkerClient{good, deadClient}, nil, Security{})
	if err == nil {
		// availability refresh may already fail; if not, the round must.
		s, _ := m.NewSession(nil)
		_, err = s.LocalRun(LocalRunSpec{Func: "test_sums", Vars: []string{"age"}})
	}
	if err == nil {
		t.Fatal("dead worker must surface an error")
	}
	if !strings.Contains(err.Error(), "dead") {
		t.Fatalf("error should name the worker: %v", err)
	}
}

// A worker whose local step panics... local funcs return errors instead;
// assert a failing local step is reported with worker attribution.
func TestLocalStepErrorAttribution(t *testing.T) {
	RegisterLocal("test_fails", func(wctx *WorkerCtx, data *engine.Table, kwargs Kwargs) (Transfer, error) {
		return nil, fmt.Errorf("synthetic failure")
	})
	m, _ := buildFed(t, false)
	s, _ := m.NewSession(nil)
	_, err := s.LocalRun(LocalRunSpec{Func: "test_fails", Vars: []string{"age"}})
	if err == nil || !strings.Contains(err.Error(), "synthetic failure") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "worker") {
		t.Fatalf("error should attribute the worker: %v", err)
	}
}

func TestSessionMinMax(t *testing.T) {
	for _, secure := range []bool{false, true} {
		m, _ := buildFed(t, secure)
		s, _ := m.NewSession(nil)
		lo, err := s.Min(federation_testSpec(), "sums")
		if err != nil {
			t.Fatalf("secure=%v min: %v", secure, err)
		}
		s2, _ := m.NewSession(nil)
		hi, err := s2.Max(federation_testSpec(), "sums")
		if err != nil {
			t.Fatalf("secure=%v max: %v", secure, err)
		}
		lov, _ := lo.Floats("sums")
		hiv, _ := hi.Floats("sums")
		if lov[0] >= hiv[0] {
			t.Fatalf("secure=%v: min %v should be below max %v", secure, lov[0], hiv[0])
		}
	}
}

func federation_testSpec() LocalRunSpec {
	return LocalRunSpec{Func: "test_sums", Vars: []string{"age"}}
}

func TestSecureSumRequiresCluster(t *testing.T) {
	m, _ := buildFed(t, false)
	s, _ := m.NewSession(nil)
	if _, err := s.SecureSum(federation_testSpec(), "n"); err == nil {
		t.Fatal("SecureSum on a plain master must fail")
	}
	// On a secure master it works.
	ms, _ := buildFed(t, true)
	ss, _ := ms.NewSession(nil)
	out, err := ss.SecureSum(federation_testSpec(), "n")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := out.Float("n"); n != 150 {
		t.Fatalf("SecureSum n = %v", n)
	}
}

func TestSessionAccessors(t *testing.T) {
	m, _ := buildFed(t, false)
	s, _ := m.NewSession([]string{"edsd"})
	if s.ID() == "" {
		t.Fatal("empty session id")
	}
	if ds := s.Datasets(); len(ds) != 1 || ds[0] != "edsd" {
		t.Fatalf("Datasets = %v", ds)
	}
	if s.Secure() {
		t.Fatal("plain session reported secure")
	}
	ms, _ := buildFed(t, true)
	ss, _ := ms.NewSession(nil)
	if !ss.Secure() {
		t.Fatal("secure session reported plain")
	}
}

func TestKeepLocalTransferRef(t *testing.T) {
	db := newWorkerDB(t, "edsd", 40, 0)
	w := NewWorker("keeper", db)
	resp, err := w.LocalRun(LocalRunRequest{
		JobID: "j1", Func: "test_sums",
		DataQuery: "SELECT age FROM data",
		// neither ShareToGlobal nor SecureKeys: result stays local
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TransferRef == "" || resp.Transfer != nil {
		t.Fatalf("expected a local ref, got %+v", resp)
	}
	tr, ok := w.LocalResult(resp.TransferRef)
	if !ok {
		t.Fatal("local result not retrievable by ref")
	}
	if n, _ := tr.Float("n"); n != 40 {
		t.Fatalf("local n = %v", n)
	}
	if _, ok := w.LocalResult("bogus"); ok {
		t.Fatal("bogus ref should miss")
	}
}

func TestWithFuncsCustomRegistry(t *testing.T) {
	reg := NewFuncRegistry()
	reg.MustRegisterLocal("only_here", func(wctx *WorkerCtx, data *engine.Table, kwargs Kwargs) (Transfer, error) {
		return Transfer{"ok": 1.0}, nil
	})
	if names := reg.LocalNames(); len(names) != 1 || names[0] != "only_here" {
		t.Fatalf("LocalNames = %v", names)
	}
	db := newWorkerDB(t, "edsd", 40, 0)
	w := NewWorker("custom", db, WithFuncs(reg))
	if w.DB() != db {
		t.Fatal("DB accessor wrong")
	}
	resp, err := w.LocalRun(LocalRunRequest{
		JobID: "j", Func: "only_here",
		DataQuery: "SELECT age FROM data", ShareToGlobal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := resp.Transfer.Float("ok"); ok != 1 {
		t.Fatal("custom func did not run")
	}
	// The default registry's funcs are absent from the custom registry.
	if _, err := w.LocalRun(LocalRunRequest{
		JobID: "j2", Func: "test_sums",
		DataQuery: "SELECT age FROM data", ShareToGlobal: true,
	}); err == nil {
		t.Fatal("default funcs should not exist on a custom registry")
	}
	// Duplicate registrations fail loudly.
	if err := reg.RegisterLocal("only_here", nil); err == nil {
		t.Fatal("duplicate local registration must error")
	}
	if err := reg.RegisterGlobal("g", func(any, []Transfer, Kwargs) (Transfer, any, error) { return nil, nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterGlobal("g", nil); err == nil {
		t.Fatal("duplicate global registration must error")
	}
}

func TestTransferAccessorErrors(t *testing.T) {
	tr := Transfer{"s": "text", "v": []any{1.5, "oops"}, "m": []any{[]any{1.0}, "bad"}}
	if _, err := tr.Float("missing"); err == nil {
		t.Fatal("missing key")
	}
	if _, err := tr.Float("s"); err == nil {
		t.Fatal("non-numeric Float")
	}
	if _, err := tr.Floats("missing"); err == nil {
		t.Fatal("missing Floats")
	}
	if _, err := tr.Floats("v"); err == nil {
		t.Fatal("mixed vector must error")
	}
	if _, err := tr.Matrix("missing"); err == nil {
		t.Fatal("missing Matrix")
	}
	if _, err := tr.Matrix("m"); err == nil {
		t.Fatal("mixed matrix must error")
	}
	if _, err := tr.Matrix("s"); err == nil {
		t.Fatal("string Matrix must error")
	}
	// Int forms accepted by Float.
	tr2 := Transfer{"i": 3, "i64": int64(4)}
	if v, _ := tr2.Float("i"); v != 3 {
		t.Fatal("int Float")
	}
	if v, _ := tr2.Float("i64"); v != 4 {
		t.Fatal("int64 Float")
	}
}

func TestAggregateFoldMismatch(t *testing.T) {
	a := Transfer{"v": []float64{1, 2}}
	b := Transfer{"v": []float64{1, 2, 3}}
	if _, err := AggregateSum([]Transfer{a, b}, "v"); err == nil {
		t.Fatal("shape mismatch must error")
	}
	if _, err := AggregateSum(nil, "v"); err == nil {
		t.Fatal("empty transfers must error")
	}
}
