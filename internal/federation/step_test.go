package federation

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"mip/internal/engine"
	"mip/internal/obs"
	"mip/internal/smpc"
)

// TestOneStatementPerSession: a worker resolves each distinct data query of
// a session once, at the session's pinned catalog version, and every later
// round reads that relation. Three rounds over one query run one engine
// statement per worker and a second query exactly one more, on the plain
// and the secure path, in-process and over HTTP. Every reuse still leaves
// one accounted record (verdict "pinned"), so the audit chain holds one
// record per step per worker while mip_engine_queries_total counts only the
// statements that ran.
func TestOneStatementPerSession(t *testing.T) {
	for _, secure := range []bool{false, true} {
		for _, overHTTP := range []bool{false, true} {
			t.Run(fmt.Sprintf("secure=%v/http=%v", secure, overHTTP), func(t *testing.T) {
				var cluster *smpc.Cluster
				var opts []WorkerOption
				if secure {
					cluster = buildCluster(t, smpc.FullThreshold)
					opts = append(opts, WithSMPC(cluster))
				}
				var workers []*Worker
				var clients []WorkerClient
				for i := 0; i < 3; i++ {
					w := NewWorker(fmt.Sprintf("q%d", i), newWorkerDB(t, "edsd", 40+5*i, float64(i)), opts...)
					workers = append(workers, w)
					if !overHTTP {
						clients = append(clients, w)
						continue
					}
					srv := httptest.NewServer((&WorkerServer{Worker: w}).Handler())
					t.Cleanup(srv.Close)
					clients = append(clients, NewHTTPWorkerClient(w.ID(), srv.URL))
				}
				m, err := NewMaster(clients, cluster, Security{UseSMPC: secure})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(m.Close)
				s, err := m.NewSession(nil)
				if err != nil {
					t.Fatal(err)
				}
				before := make([]int64, len(workers))
				for i, w := range workers {
					before[i] = w.DB().QueryCount()
				}
				queries0 := counterValue("mip_engine_queries_total")
				audit0, _ := obs.DefaultAudit.Head()
				statements := func(want int64, what string) {
					t.Helper()
					for i, w := range workers {
						if got := w.DB().QueryCount() - before[i]; got != want {
							t.Errorf("%s: worker %s ran %d engine statements, want %d", what, w.ID(), got, want)
						}
					}
					if got := counterValue("mip_engine_queries_total") - queries0; got != want*int64(len(workers)) {
						t.Errorf("%s: mip_engine_queries_total +%d, want %d", what, got, want*int64(len(workers)))
					}
				}
				const rounds = 3
				for k := 0; k < rounds; k++ {
					out, err := s.Aggregate(LocalRunSpec{Func: "test_sums", Vars: []string{"age"}})
					if err != nil {
						t.Fatal(err)
					}
					if n, _ := out.Float("n"); n != 40+45+50 {
						t.Fatalf("round %d: n = %v", k, n)
					}
				}
				statements(1, "3 rounds over one data query")
				if _, err := s.Aggregate(LocalRunSpec{Func: "test_sums", Vars: []string{"age", "mmse"}}); err != nil {
					t.Fatal(err)
				}
				statements(2, "a second data query")

				verdicts := map[string]int{}
				for _, r := range obs.DefaultAudit.Entries(obs.AuditFilter{Kind: obs.KindQuery}) {
					if r.Seq > audit0 && strings.HasPrefix(r.Job, s.ID()+"/") {
						verdicts[r.Verdict]++
					}
				}
				if want := map[string]int{engine.VerdictCompleted: 2 * len(workers), "pinned": (rounds - 1) * len(workers)}; !reflect.DeepEqual(verdicts, want) {
					t.Errorf("audit records by verdict = %v, want %v (one per step per worker)", verdicts, want)
				}
			})
		}
	}
}

// TestDisclosureCountsStepRelation: disclosure control judges the relation
// the step body would consume, before the body runs. The body here
// loopback-INSERTs rows matching its own data query; were the relation
// evaluated a second time after the body, the count would clear minRows on
// rows the step never saw and a sub-threshold transfer would ship.
func TestDisclosureCountsStepRelation(t *testing.T) {
	reg := NewFuncRegistry()
	ran := false
	reg.MustRegisterLocal("test_inflate", func(wctx *WorkerCtx, data *engine.Table, _ Kwargs) (Transfer, error) {
		ran = true
		rows := make([]string, DefaultMinRows)
		for i := range rows {
			rows[i] = fmt.Sprintf("('tiny', %d, 1)", 60+i)
		}
		if _, err := wctx.Loopback("INSERT INTO " + DataTable + " VALUES " + strings.Join(rows, ", ")); err != nil {
			return nil, err
		}
		return Transfer{"n": Scalar(float64(data.NumRows()))}, nil
	})
	db := newWorkerDB(t, "tiny", DefaultMinRows/2, 0)
	w := NewWorker("tiny", db, WithFuncs(reg))

	resp, err := w.LocalRun(LocalRunRequest{
		JobID: "exp-inflate/step-1", Func: "test_inflate",
		DataQuery: "SELECT age FROM " + DataTable + " WHERE dataset = 'tiny'",
	})
	if err == nil || !strings.Contains(err.Error(), "disclosure control") {
		t.Fatalf("err = %v, want the disclosure-control refusal", err)
	}
	if resp.Transfer != nil {
		t.Fatalf("a sub-threshold transfer shipped: %v", resp.Transfer)
	}
	if ran {
		t.Fatal("the step body ran over a sub-threshold relation")
	}
	n, err := db.Query("SELECT count(*) AS n FROM " + DataTable)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Col(0).Int64s()[0]; got != DefaultMinRows/2 {
		t.Fatalf("data table holds %d rows after the refused step, want %d", got, DefaultMinRows/2)
	}
}

// TestStepPanicFailsStep: a step body that panics fails its step promptly
// with an error naming the worker, the step and the panic value, and a
// replay of its job id fails just as promptly instead of waiting on an
// attempt that never finished. Over HTTP the handler must also finish, so
// the server can close; in process the panic must not escape the session's
// worker goroutine.
func TestStepPanicFailsStep(t *testing.T) {
	reg := NewFuncRegistry()
	reg.MustRegisterLocal("test_panics", func(_ *WorkerCtx, data *engine.Table, _ Kwargs) (Transfer, error) {
		var none []float64
		return Transfer{"x": Scalar(none[data.NumRows()])}, nil
	})
	newWorker := func(t *testing.T) *Worker {
		return NewWorker("p0", newWorkerDB(t, "edsd", 30, 0), WithFuncs(reg))
	}
	check := func(t *testing.T, run func() error) {
		t.Helper()
		t0 := time.Now()
		err := run()
		if d := time.Since(t0); d > time.Second {
			t.Errorf("panicking step took %v to fail", d)
		}
		if err == nil {
			t.Fatal("panicking step succeeded")
		}
		for _, s := range []string{"worker p0", "fed_test_panics", "panicked", "index out of range"} {
			if !strings.Contains(err.Error(), s) {
				t.Errorf("error %q does not name %q", err, s)
			}
		}
	}
	req := LocalRunRequest{JobID: "exp-panic/step-1", Func: "test_panics", DataQuery: "SELECT age FROM data"}

	t.Run("http", func(t *testing.T) {
		srv := httptest.NewServer((&WorkerServer{Worker: newWorker(t)}).Handler())
		c := NewHTTPWorkerClient("p0", srv.URL)
		c.RunTimeout = 2 * time.Second
		for i := 0; i < 2; i++ { // the original, then its replay
			check(t, func() error { _, err := c.LocalRun(req); return err })
		}
		closed := make(chan struct{})
		go func() { srv.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Error("server did not close: a /localrun handler is stuck")
		}
	})
	t.Run("inproc", func(t *testing.T) {
		w := newWorker(t)
		m, err := NewMaster([]WorkerClient{w}, nil, Security{})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		sess, err := m.NewSession([]string{"edsd"})
		if err != nil {
			t.Fatal(err)
		}
		check(t, func() error {
			_, err := sess.LocalRun(LocalRunSpec{Func: "test_panics", Vars: []string{"age"}})
			return err
		})
		for i := 0; i < 2; i++ {
			check(t, func() error { _, err := w.LocalRun(req); return err })
		}
	})
}
