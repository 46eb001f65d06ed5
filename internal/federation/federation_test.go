package federation

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"mip/internal/engine"
	"mip/internal/smpc"
)

func init() {
	// Test local step: per-column sums and count over the input relation.
	// The kwarg "op" tags the sums (default: summed across workers).
	RegisterLocal("test_sums", func(wctx *WorkerCtx, data *engine.Table, kwargs Kwargs) (Transfer, error) {
		var a struct{ Op smpc.Op }
		if err := kwargs.Decode(&a); err != nil {
			return nil, err
		}
		tr := Transfer{"n": Scalar(float64(data.NumRows()))}
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
		tr["sums"] = Vector(vec).WithOp(a.Op)
		return tr, nil
	})
	// Test local step exercising loopback SQL.
	RegisterLocal("test_loopback", func(wctx *WorkerCtx, data *engine.Table, kwargs Kwargs) (Transfer, error) {
		t, err := wctx.Loopback("SELECT count(*) AS n FROM " + DataTable)
		if err != nil {
			return nil, err
		}
		return Transfer{"total": Scalar(float64(t.Col(0).Int64s()[0]))}, nil
	})
	// Test local step whose loopback reads the blocking "slowtbl" view of a
	// slowWorker, so the body stays inside the engine until cancelled.
	RegisterLocal("test_loopback_slow", func(wctx *WorkerCtx, data *engine.Table, kwargs Kwargs) (Transfer, error) {
		if _, err := wctx.Loopback("SELECT age FROM slowtbl"); err != nil {
			return nil, err
		}
		return Transfer{"n": Scalar(float64(data.NumRows()))}, nil
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
		return Transfer{"times": Vector(out).WithOp(smpc.OpUnion)}, nil
	})
	// Test local step carrying one key of every op: the row count (sum), the
	// youngest and oldest age (min, max) and the distinct age decades
	// (union).
	RegisterLocal("test_mixed", func(wctx *WorkerCtx, data *engine.Table, kwargs Kwargs) (Transfer, error) {
		ages := data.ColByName("age").CastFloat64().Float64s()
		lo, hi := slices.Min(ages), slices.Max(ages)
		var decades []float64
		for _, a := range ages {
			decades = append(decades, math.Floor(a/10))
		}
		slices.Sort(decades)
		return Transfer{
			"n":       Scalar(float64(len(ages))),
			"lo":      Scalar(lo).WithOp(smpc.OpMin),
			"hi":      Scalar(hi).WithOp(smpc.OpMax),
			"decades": Vector(slices.Compact(decades)).WithOp(smpc.OpUnion),
		}, nil
	})
	// Test local step whose workers disagree on how "extreme" combines:
	// hosp1 tags it max, every other worker min.
	RegisterLocal("test_disagree", func(wctx *WorkerCtx, data *engine.Table, kwargs Kwargs) (Transfer, error) {
		op := smpc.OpMin
		if wctx.WorkerID == "hosp1" {
			op = smpc.OpMax
		}
		return Transfer{"n": Scalar(float64(data.NumRows())), "extreme": Scalar(1).WithOp(op)}, nil
	})
	// Test local step whose vector length depends on the worker: hosp0 and
	// hosp2 emit one value, hosp1 two.
	RegisterLocal("test_ragged", func(wctx *WorkerCtx, data *engine.Table, kwargs Kwargs) (Transfer, error) {
		n := 1 + int(wctx.WorkerID[len(wctx.WorkerID)-1]%2)
		return Transfer{"v": Vector(make([]float64, n))}, nil
	})
	// Test local step that always fails.
	RegisterLocal("test_fails", func(wctx *WorkerCtx, data *engine.Table, kwargs Kwargs) (Transfer, error) {
		return nil, fmt.Errorf("synthetic failure")
	})
}

// newWorkerDB builds a worker database holding `rows` patients of the given
// dataset with deterministic age/mmse values offset by base.
func newWorkerDB(t testing.TB, dataset string, rows int, base float64) *engine.DB {
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
	agg, err := aggregateFold(transfers)
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
	plain, err := aggregateFold(transfers)
	if err != nil {
		t.Fatal(err)
	}

	ss, _ := secureM.NewSession(nil)
	secure, err := ss.Aggregate(LocalRunSpec{Func: "test_sums", Vars: []string{"age", "mmse"}})
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
	out, err := s.Aggregate(LocalRunSpec{Func: "test_sums", Vars: []string{"age"}})
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

func TestSecureUnion(t *testing.T) {
	for _, secure := range []bool{false, true} {
		m, _ := buildFed(t, secure)
		s, _ := m.NewSession(nil)
		union, err := s.Aggregate(LocalRunSpec{Func: "test_times", Vars: []string{"age"}})
		if err != nil {
			t.Fatalf("secure=%v: %v", secure, err)
		}
		times, _ := union.Floats("times")
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
	agg, err := aggregateFold(transfers)
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
	if _, err := c.QueryCtx(context.Background(), "SELECT * FROM data"); err == nil {
		t.Fatal("raw query must be forbidden")
	}
	// Local runs still work.
	resp, err := c.LocalRun(LocalRunRequest{JobID: "x", Func: "test_sums", DataQuery: "SELECT age FROM data"})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := resp.Transfer.Float("n"); n != 40 {
		t.Fatalf("n = %v", n)
	}
}

// TestTensorJSONRoundTrip: every tensor shape a step can emit crosses the
// JSON wire bit for bit — a scalar, -0.0, a 0-length vector, a 0×k matrix
// and a 3×2 matrix.
func TestTensorJSONRoundTrip(t *testing.T) {
	tr := Transfer{
		"scalar": Scalar(3.5),
		"negz":   Scalar(math.Copysign(0, -1)),
		"empty":  Vector([]float64{}),
		"none":   Matrix(0, 4, nil),
		"mat":    Matrix(3, 2, []float64{1, -2.25, 3e-300, 4, 5e300, math.Copysign(0, -1)}),
	}
	buf, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Transfer
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(tr) {
		t.Fatalf("keys: %v", back)
	}
	for k, want := range tr {
		got := back[k]
		if !slices.Equal(got.Shape, want.Shape) || len(got.Data) != len(want.Data) {
			t.Fatalf("%s: %+v became %+v (%s)", k, want, got, buf)
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s[%d]: %v became %v", k, i, want.Data[i], got.Data[i])
			}
		}
	}
	if x, err := back.Float("negz"); err != nil || !math.Signbit(x) {
		t.Fatalf("negz = %v, %v; want -0", x, err)
	}
	if v, err := back.Floats("empty"); err != nil || len(v) != 0 {
		t.Fatalf("empty = %v, %v", v, err)
	}
	if m, err := back.Matrix("none"); err != nil || len(m) != 0 {
		t.Fatalf("none = %v, %v", m, err)
	}
	if m, err := back.Matrix("mat"); err != nil || len(m) != 3 || m[2][0] != 5e300 {
		t.Fatalf("mat = %v, %v", m, err)
	}
}

// TestGenerateStepSQL pins the wrapper text byte for byte: mipbench E2
// prints it as the paper's UDF-to-SQL reproduction.
func TestGenerateStepSQL(t *testing.T) {
	reg := NewFuncRegistry()
	for _, name := range []string{"linreg_fit_local", "test_sums"} {
		reg.MustRegisterLocal(name, func(*WorkerCtx, *engine.Table, Kwargs) (Transfer, error) { return nil, nil })
	}
	w := NewWorker("h", newWorkerDB(t, "edsd", 20, 0), WithFuncs(reg))
	for _, c := range []struct{ fn, query, want string }{
		{"linreg_fit_local", "SELECT minimentalstate, lefthippocampus FROM data WHERE dataset IN ('edsd')",
			"CREATE OR REPLACE FUNCTION fed_linreg_fit_local(data TABLE(*), kwargs JSON)\n" +
				"RETURNS TABLE(transfer JSON)\n" +
				"LANGUAGE NATIVE -- JIT-generated wrapper\n" +
				"{ body: fed_linreg_fit_local };\n" +
				"SELECT * FROM fed_linreg_fit_local((SELECT minimentalstate, lefthippocampus FROM data WHERE dataset IN ('edsd')), kwargs);"},
		{"test_sums", "  ",
			"CREATE OR REPLACE FUNCTION fed_test_sums(data TABLE(*), kwargs JSON)\n" +
				"RETURNS TABLE(transfer JSON)\n" +
				"LANGUAGE NATIVE -- JIT-generated wrapper\n" +
				"{ body: fed_test_sums };\n" +
				"SELECT * FROM fed_test_sums(data, kwargs);"},
	} {
		sql, err := w.GenerateStepSQL(c.fn, c.query)
		if err != nil {
			t.Fatal(err)
		}
		if sql != c.want {
			t.Fatalf("GenerateStepSQL(%q, %q):\n%s\nwant:\n%s", c.fn, c.query, sql, c.want)
		}
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
	out, err := s.Aggregate(LocalRunSpec{Func: "test_sums", Vars: []string{"age"}})
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
		spec := federation_testSpec()
		spec.Kwargs = map[string]any{"op": smpc.OpMin}
		lo, err := s.Aggregate(spec)
		if err != nil {
			t.Fatalf("secure=%v min: %v", secure, err)
		}
		s2, _ := m.NewSession(nil)
		spec.Kwargs = map[string]any{"op": smpc.OpMax}
		hi, err := s2.Aggregate(spec)
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
	// On a secure master the sum goes through the cluster.
	ms, _ := buildFed(t, true)
	ss, _ := ms.NewSession(nil)
	out, err := ss.Aggregate(federation_testSpec())
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

func TestWithFuncsCustomRegistry(t *testing.T) {
	reg := NewFuncRegistry()
	reg.MustRegisterLocal("only_here", func(wctx *WorkerCtx, data *engine.Table, kwargs Kwargs) (Transfer, error) {
		return Transfer{"ok": Scalar(1)}, nil
	})
	if reg.Local("only_here") == nil || reg.Local("test_sums") != nil {
		t.Fatal("custom registry must hold exactly its own funcs")
	}
	db := newWorkerDB(t, "edsd", 40, 0)
	w := NewWorker("custom", db, WithFuncs(reg))
	if w.DB() != db {
		t.Fatal("DB accessor wrong")
	}
	resp, err := w.LocalRun(LocalRunRequest{
		JobID: "j", Func: "only_here",
		DataQuery: "SELECT age FROM data",
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
		DataQuery: "SELECT age FROM data",
	}); err == nil {
		t.Fatal("default funcs should not exist on a custom registry")
	}
	// Duplicate registrations fail loudly.
	if err := reg.RegisterLocal("only_here", nil); err == nil {
		t.Fatal("duplicate local registration must error")
	}
}

func TestTransferAccessorErrors(t *testing.T) {
	tr := Transfer{
		"s":     Scalar(1.5),
		"v":     Vector([]float64{1, 2}),
		"m":     Matrix(2, 2, []float64{1, 2, 3, 4}),
		"short": Tensor{Shape: []int{3}, Data: []float64{1, 2}},
	}
	for _, bad := range []struct {
		key string
		get func(string) error
	}{
		{"missing", func(k string) error { _, err := tr.Float(k); return err }},
		{"v", func(k string) error { _, err := tr.Float(k); return err }},
		{"s", func(k string) error { _, err := tr.Floats(k); return err }},
		{"m", func(k string) error { _, err := tr.Floats(k); return err }},
		{"short", func(k string) error { _, err := tr.Floats(k); return err }},
		{"v", func(k string) error { _, err := tr.Matrix(k); return err }},
		{"missing", func(k string) error { _, err := tr.Matrix(k); return err }},
	} {
		if bad.get(bad.key) == nil {
			t.Fatalf("%q: wrong-shape access must error", bad.key)
		}
	}
	if m, err := tr.Matrix("m"); err != nil || m[1][0] != 3 {
		t.Fatalf("matrix = %v, %v", m, err)
	}
}

func TestAggregateFoldMismatch(t *testing.T) {
	a := Transfer{"v": Vector([]float64{1, 2})}
	b := Transfer{"v": Vector([]float64{1, 2, 3})}
	if _, err := aggregateFold([]Transfer{a, b}); err == nil {
		t.Fatal("shape mismatch must error")
	}
	if _, err := aggregateFold([]Transfer{a, {"v": Tensor{Shape: []int{2}, Data: []float64{1}}}}); err == nil {
		t.Fatal("data not filling its shape must error")
	}
	if _, err := aggregateFold([]Transfer{a, {}}); err == nil {
		t.Fatal("missing key must error")
	}
	if _, err := aggregateFold(nil); err == nil {
		t.Fatal("empty transfers must error")
	}
}

// TestInconsistentShapesFail: a step whose vector length depends on the
// worker fails Sum on both paths, and the secure job it imported is
// discarded.
func TestInconsistentShapesFail(t *testing.T) {
	for _, secure := range []bool{false, true} {
		m, _ := buildFed(t, secure)
		s, _ := m.NewSession(nil)
		_, err := s.Aggregate(LocalRunSpec{Func: "test_ragged", Vars: []string{"age"}})
		if err == nil || !strings.Contains(err.Error(), "inconsistent shapes") {
			t.Fatalf("secure=%v: err = %v, want inconsistent shapes", secure, err)
		}
		if secure {
			if w := m.smpc.Workers(s.ID() + "/step-1/sum"); w != nil {
				t.Fatalf("inconsistent step left shares from %v in the cluster", w)
			}
		}
	}
}

// localRunCounter counts the /localrun calls a worker receives.
type localRunCounter struct {
	WorkerClient
	calls atomic.Int64
}

func (c *localRunCounter) LocalRun(req LocalRunRequest) (LocalRunResponse, error) {
	c.calls.Add(1)
	return c.WorkerClient.LocalRun(req)
}

// TestMixedOpTransfer: one step's transfer carries a sum, a min, a max and
// a union key; Aggregate combines each by its own op in one /localrun per
// worker, with the same values plain, full-threshold and Shamir.
func TestMixedOpTransfer(t *testing.T) {
	var want Transfer
	for _, mode := range []string{"plain", "full-threshold", "shamir"} {
		var cluster *smpc.Cluster
		var opts []WorkerOption
		switch mode {
		case "full-threshold":
			cluster = buildCluster(t, smpc.FullThreshold)
		case "shamir":
			cluster = buildCluster(t, smpc.ShamirScheme)
		}
		if cluster != nil {
			opts = append(opts, WithSMPC(cluster))
		}
		var clients []*localRunCounter
		var wcs []WorkerClient
		for i, ds := range []string{"edsd", "edsd", "ppmi"} {
			c := &localRunCounter{WorkerClient: NewWorker(fmt.Sprintf("hosp%d", i), newWorkerDB(t, ds, 40+10*i, float64(3*i)), opts...)}
			clients = append(clients, c)
			wcs = append(wcs, c)
		}
		m, err := NewMaster(wcs, cluster, Security{UseSMPC: cluster != nil})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		s, _ := m.NewSession(nil)
		got, err := s.Aggregate(LocalRunSpec{Func: "test_mixed", Vars: []string{"age"}})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		for _, c := range clients {
			if n := c.calls.Load(); n != 1 {
				t.Errorf("%s: worker %s got %d /localrun calls, want 1", mode, c.ID(), n)
			}
		}
		if want == nil {
			want = got
			n, _ := got.Float("n")
			lo, _ := got.Float("lo")
			hi, _ := got.Float("hi")
			decades, _ := got.Floats("decades")
			if n != 150 || lo != 50 || hi != 95 || !slices.Equal(decades, []float64{5, 6, 7, 8, 9}) {
				t.Fatalf("plain: n=%v lo=%v hi=%v decades=%v", n, lo, hi, decades)
			}
			continue
		}
		for k, w := range want {
			if g := got[k]; !slices.Equal(g.Data, w.Data) || !slices.Equal(g.Shape, w.Shape) || g.Op != w.Op {
				t.Errorf("%s: %q = %+v, plain %+v", mode, k, g, w)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d keys, plain %d", mode, len(got), len(want))
		}
	}
}

// TestOpDisagreementFails: workers tagging one key with different ops fail
// the round on both paths with an error naming the key, and a secure round
// leaves no group's shares in the cluster.
func TestOpDisagreementFails(t *testing.T) {
	for _, secure := range []bool{false, true} {
		m, _ := buildFed(t, secure)
		s, _ := m.NewSession(nil)
		_, err := s.Aggregate(LocalRunSpec{Func: "test_disagree", Vars: []string{"age"}})
		if err == nil || !strings.Contains(err.Error(), `"extreme"`) {
			t.Fatalf("secure=%v: err = %v, want an error naming \"extreme\"", secure, err)
		}
		if secure {
			for _, op := range aggOps {
				if w := m.smpc.Workers(groupJob(s.ID()+"/step-1", op)); w != nil {
					t.Fatalf("the %v group kept shares from %v in the cluster", op, w)
				}
			}
		}
	}
}
