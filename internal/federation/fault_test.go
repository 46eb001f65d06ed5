package federation_test

// Chaos and error-path tests for the fault-tolerance layer: retries with
// backoff, per-worker circuit breakers, and quorum-based degraded
// aggregation. They live in an external test package so they can drive the
// federation through the faultinject wrapper (which imports federation).

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/federation/faultinject"
	"mip/internal/obs"
	"mip/internal/smpc"
)

var sideEffectRuns atomic.Int64

func init() {
	// A step with an observable side effect, for replay-dedupe tests.
	federation.RegisterLocal("test_sideeffect", func(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
		sideEffectRuns.Add(1)
		return federation.Transfer{"n": federation.Scalar(float64(data.NumRows()))}, nil
	})
}

// noSleep makes retry backoff instantaneous in tests.
func noSleep(time.Duration) {}

// fastRetry is a 3-attempt policy with no real sleeping.
var fastRetry = federation.RetryPolicy{MaxAttempts: 3, Sleep: noSleep}

// chaosWorker builds one in-process worker with `rows` rows of dataset.
func chaosWorker(t *testing.T, id, dataset string, rows int, opts ...federation.WorkerOption) *federation.Worker {
	t.Helper()
	db := engine.NewDB()
	tab := engine.NewTable(engine.Schema{
		{Name: "dataset", Type: engine.String},
		{Name: "age", Type: engine.Float64},
	})
	for i := 0; i < rows; i++ {
		if err := tab.AppendRow(dataset, 50+float64(i%40)); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterTable(federation.DataTable, tab)
	return federation.NewWorker(id, db, opts...)
}

// breakerOff disables the background probe loop so tests drive recovery
// deterministically through ProbeNow.
var breakerOff = federation.BreakerConfig{ProbeInterval: -1}

// TestRetrySurvivesFlakyWorker is the headline chaos scenario: an
// experiment over 4 workers succeeds — with a full, non-degraded result —
// even though one worker fails 2 of 3 delivery attempts, because the retry
// layer replays the idempotent /localrun.
func TestRetrySurvivesFlakyWorker(t *testing.T) {
	var clients []federation.WorkerClient
	var flaky *faultinject.Client
	for i := 0; i < 4; i++ {
		w := chaosWorker(t, fmt.Sprintf("site%d", i), "edsd", 20+i)
		if i == 1 {
			flaky = faultinject.Wrap(w)
			flaky.FailN("LocalRun", 2)
			clients = append(clients, federation.WithRetry(flaky, fastRetry))
		} else {
			clients = append(clients, w)
		}
	}
	m, err := federation.NewMaster(clients, nil, federation.Security{}, federation.WithBreaker(breakerOff))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sess, err := m.NewSession([]string{"edsd"})
	if err != nil {
		t.Fatal(err)
	}
	total, err := sess.Aggregate(federation.LocalRunSpec{Func: "test_sums", Vars: []string{"age"}})
	if err != nil {
		t.Fatalf("Sum with flaky worker: %v", err)
	}
	n, err := total.Float("n")
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(20 + 21 + 22 + 23); n != want {
		t.Fatalf("n = %v, want %v (full quorum, no degradation)", n, want)
	}
	if d := sess.Dropped(); len(d) != 0 {
		t.Fatalf("dropped = %v, want none", d)
	}
	if got := flaky.Calls("LocalRun"); got != 3 {
		t.Fatalf("flaky worker saw %d LocalRun attempts, want 3 (2 failures + 1 success)", got)
	}
}

// TestDeadWorkerPartialAggregate: a permanently dead worker under a
// MinWorkers quorum produces a partial aggregate that names the dropped
// worker in the session metadata.
func TestDeadWorkerPartialAggregate(t *testing.T) {
	var clients []federation.WorkerClient
	var dead *faultinject.Client
	for i := 0; i < 4; i++ {
		w := chaosWorker(t, fmt.Sprintf("site%d", i), "edsd", 10*(i+1))
		if i == 2 {
			dead = faultinject.Wrap(w)
			dead.SetDown()
			clients = append(clients, dead)
		} else {
			clients = append(clients, w)
		}
	}
	m, err := federation.NewMaster(clients, nil, federation.Security{},
		federation.WithBreaker(breakerOff),
		federation.WithTolerance(federation.Tolerance{MinWorkers: 3}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// The dead worker failed its availability scan, so scope the session to
	// all workers explicitly (nil datasets = every worker) to prove the
	// step-level drop, not just the availability-level skip.
	sess, err := m.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sess.NumWorkers() != 4 {
		t.Fatalf("session workers = %d, want 4", sess.NumWorkers())
	}
	total, err := sess.Aggregate(federation.LocalRunSpec{Func: "test_sums", Vars: []string{"age"}})
	if err != nil {
		t.Fatalf("Sum with dead worker under quorum: %v", err)
	}
	n, _ := total.Float("n")
	if want := float64(10 + 20 + 40); n != want {
		t.Fatalf("partial n = %v, want %v (sites 0,1,3)", n, want)
	}
	d := sess.Dropped()
	if len(d) != 1 || d[0] != "site2" {
		t.Fatalf("dropped = %v, want [site2]", d)
	}
}

// TestQuorumNotMet: losing more workers than the tolerance allows fails
// the step with a quorum error.
func TestQuorumNotMet(t *testing.T) {
	var clients []federation.WorkerClient
	for i := 0; i < 3; i++ {
		w := chaosWorker(t, fmt.Sprintf("site%d", i), "edsd", 10)
		if i > 0 {
			fi := faultinject.Wrap(w)
			fi.SetDown()
			clients = append(clients, fi)
		} else {
			clients = append(clients, w)
		}
	}
	m, err := federation.NewMaster(clients, nil, federation.Security{},
		federation.WithBreaker(breakerOff),
		federation.WithTolerance(federation.Tolerance{MinWorkers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sess, err := m.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Aggregate(federation.LocalRunSpec{Func: "test_sums", Vars: []string{"age"}})
	if err == nil || !strings.Contains(err.Error(), "quorum not met") {
		t.Fatalf("err = %v, want quorum-not-met", err)
	}
	if !strings.Contains(err.Error(), "1 of 3 workers responded, need 2") {
		t.Fatalf("err = %v, want counts in message", err)
	}
}

// TestSecureAggregationNeverDegrades: the SMPC path requires every
// worker's shares, so even a generous tolerance cannot produce a partial
// secure sum — the error says so explicitly.
func TestSecureAggregationNeverDegrades(t *testing.T) {
	cluster, err := smpc.NewCluster(smpc.Config{Scheme: smpc.FullThreshold, Nodes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var clients []federation.WorkerClient
	for i := 0; i < 3; i++ {
		w := chaosWorker(t, fmt.Sprintf("site%d", i), "edsd", 20, federation.WithSMPC(cluster))
		if i == 1 {
			fi := faultinject.Wrap(w)
			fi.SetDown()
			clients = append(clients, fi)
		} else {
			clients = append(clients, w)
		}
	}
	m, err := federation.NewMaster(clients, cluster, federation.Security{UseSMPC: true},
		federation.WithBreaker(breakerOff),
		federation.WithTolerance(federation.Tolerance{MinWorkers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sess, err := m.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Aggregate(federation.LocalRunSpec{Func: "test_sums", Vars: []string{"age"}})
	if err == nil || !strings.Contains(err.Error(), "secure aggregation requires shares from all 3 workers") {
		t.Fatalf("err = %v, want all-shares-required", err)
	}
}

// TestFailedSecureStepReleasesShares: when one worker fails a secure step,
// the shares the others already imported are dropped with the step — the
// cluster keeps no job and mip_smpc_pending_jobs returns to where it was —
// and the next step aggregates normally.
func TestFailedSecureStepReleasesShares(t *testing.T) {
	pending := obs.GetGauge("mip_smpc_pending_jobs", "")
	start := pending.Value()
	cluster, err := smpc.NewCluster(smpc.Config{Scheme: smpc.FullThreshold, Nodes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var clients []federation.WorkerClient
	for i := 0; i < 3; i++ {
		w := chaosWorker(t, fmt.Sprintf("site%d", i), "edsd", 20, federation.WithSMPC(cluster))
		if i == 1 {
			fi := faultinject.Wrap(w)
			fi.FailN("LocalRun", 1)
			clients = append(clients, fi)
		} else {
			clients = append(clients, w)
		}
	}
	m, err := federation.NewMaster(clients, cluster, federation.Security{UseSMPC: true},
		federation.WithBreaker(breakerOff))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sess, err := m.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := federation.LocalRunSpec{Func: "test_sums", Vars: []string{"age"}}
	if _, err := sess.Aggregate(spec); err == nil {
		t.Fatal("secure step with a failing worker succeeded")
	}
	if w := cluster.Workers(sess.ID() + "/step-1/sum"); w != nil {
		t.Fatalf("failed step left shares from %v in the cluster", w)
	}
	if got := pending.Value(); got != start {
		t.Fatalf("mip_smpc_pending_jobs = %v after the failed step, want %v", got, start)
	}
	total, err := sess.Aggregate(spec)
	if err != nil {
		t.Fatalf("step after recovery: %v", err)
	}
	if n, _ := total.Float("n"); math.Abs(n-60) > 1e-6 {
		t.Fatalf("n = %v, want 60", n)
	}
	if got := pending.Value(); got != start {
		t.Fatalf("mip_smpc_pending_jobs = %v after the good step, want %v", got, start)
	}
}

// TestCircuitBreakerLifecycle: consecutive failures open the circuit,
// open circuits are skipped without a call, and a half-open probe after
// the cooldown readmits a recovered worker.
func TestCircuitBreakerLifecycle(t *testing.T) {
	good := chaosWorker(t, "good", "edsd", 10)
	flap := faultinject.Wrap(chaosWorker(t, "flap", "edsd", 10))
	m, err := federation.NewMaster(
		[]federation.WorkerClient{good, flap}, nil, federation.Security{},
		federation.WithBreaker(federation.BreakerConfig{
			FailureThreshold: 2, Cooldown: time.Millisecond, ProbeInterval: -1,
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if st := m.WorkerState("flap"); st != "closed" {
		t.Fatalf("initial state = %q, want closed", st)
	}

	flap.SetDown()
	for i := 0; i < 2; i++ {
		_ = m.RefreshAvailability() // live worker keeps the scan non-fatal
	}
	if st := m.WorkerState("flap"); st != "open" {
		t.Fatalf("state after 2 failures = %q, want open", st)
	}
	if av := m.Availability(); len(av["edsd"]) != 1 {
		t.Fatalf("availability with open circuit = %v, want only good", av)
	}

	// While open (within cooldown the breaker may flip to half-open and
	// admit exactly one probe), further scans cannot hammer the worker.
	calls := flap.Calls("DatasetInfo")
	_ = m.RefreshAvailability()
	if got := flap.Calls("DatasetInfo"); got > calls+1 {
		t.Fatalf("open circuit admitted %d calls in one scan", got-calls)
	}

	// Recovery: worker comes back, cooldown passes, probe closes the circuit.
	flap.SetUp()
	time.Sleep(5 * time.Millisecond)
	m.ProbeNow()
	if st := m.WorkerState("flap"); st != "closed" {
		t.Fatalf("state after recovery probe = %q, want closed", st)
	}
	if av := m.Availability(); len(av["edsd"]) != 2 {
		t.Fatalf("availability after recovery = %v, want both workers", av)
	}
	states := m.WorkerStates()
	if states["flap"].State != "closed" || states["good"].ConsecutiveFailures != 0 {
		t.Fatalf("WorkerStates = %+v", states)
	}
}

// TestNewMasterSurvivesDeadWorker: construction no longer fails when a
// worker is unreachable; the worker is simply absent from availability.
func TestNewMasterSurvivesDeadWorker(t *testing.T) {
	good := chaosWorker(t, "good", "edsd", 10)
	dead := faultinject.Wrap(chaosWorker(t, "dead", "ppmi", 10))
	dead.SetDown()
	m, err := federation.NewMaster(
		[]federation.WorkerClient{good, dead}, nil, federation.Security{},
		federation.WithBreaker(breakerOff))
	if err != nil {
		t.Fatalf("NewMaster with dead worker: %v", err)
	}
	defer m.Close()
	av := m.Availability()
	if len(av["edsd"]) != 1 || len(av["ppmi"]) != 0 {
		t.Fatalf("availability = %v, want edsd only", av)
	}
	// Recovery through ProbeNow readmits the dataset.
	dead.SetUp()
	m.ProbeNow()
	if av := m.Availability(); len(av["ppmi"]) != 1 {
		t.Fatalf("availability after recovery = %v, want ppmi back", av)
	}
}

// TestWorkerReplayDedupe: replaying a /localrun with the same JobID does
// not re-execute the step; a fresh JobID does.
func TestWorkerReplayDedupe(t *testing.T) {
	w := chaosWorker(t, "site0", "edsd", 15)
	req := federation.LocalRunRequest{
		JobID: "exp-replay/step-1", Func: "test_sideeffect",
		DataQuery: "SELECT age FROM " + federation.DataTable,
	}
	base := sideEffectRuns.Load()
	r1, err := w.LocalRun(req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := w.LocalRun(req) // replay
	if err != nil {
		t.Fatal(err)
	}
	if got := sideEffectRuns.Load() - base; got != 1 {
		t.Fatalf("step executed %d times for one JobID, want 1", got)
	}
	n1, _ := r1.Transfer.Float("n")
	n2, _ := r2.Transfer.Float("n")
	if n1 != n2 || n1 != 15 {
		t.Fatalf("replayed transfer n = %v/%v, want 15", n1, n2)
	}
	req.JobID = "exp-replay/step-2"
	if _, err := w.LocalRun(req); err != nil {
		t.Fatal(err)
	}
	if got := sideEffectRuns.Load() - base; got != 2 {
		t.Fatalf("fresh JobID did not execute (runs=%d)", got)
	}
}

// TestWorkerReplayConcurrent: concurrent duplicates of one JobID execute
// the step exactly once (the replica waits for the in-flight original).
func TestWorkerReplayConcurrent(t *testing.T) {
	w := chaosWorker(t, "site0", "edsd", 15)
	req := federation.LocalRunRequest{
		JobID: "exp-conc/step-1", Func: "test_sideeffect",
		DataQuery: "SELECT age FROM " + federation.DataTable,
	}
	base := sideEffectRuns.Load()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := w.LocalRun(req); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := sideEffectRuns.Load() - base; got != 1 {
		t.Fatalf("step executed %d times under concurrent replays, want 1", got)
	}
}

// TestStragglerDeadline: a worker that answers too slowly is dropped at
// the step deadline while the quorum's partial result comes back.
func TestStragglerDeadline(t *testing.T) {
	var clients []federation.WorkerClient
	for i := 0; i < 3; i++ {
		w := chaosWorker(t, fmt.Sprintf("site%d", i), "edsd", 10)
		if i == 2 {
			fi := faultinject.Wrap(w)
			fi.Script("LocalRun", faultinject.Step{Delay: 2 * time.Second})
			clients = append(clients, fi)
		} else {
			clients = append(clients, w)
		}
	}
	m, err := federation.NewMaster(clients, nil, federation.Security{},
		federation.WithBreaker(breakerOff),
		federation.WithTolerance(federation.Tolerance{MinWorkers: 2, StepDeadline: 50 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sess, err := m.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	total, err := sess.Aggregate(federation.LocalRunSpec{Func: "test_sums", Vars: []string{"age"}})
	if err != nil {
		t.Fatalf("Sum with straggler: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("step waited %v for the straggler, deadline did not fire", elapsed)
	}
	n, _ := total.Float("n")
	if n != 20 {
		t.Fatalf("partial n = %v, want 20", n)
	}
	if d := sess.Dropped(); len(d) != 1 || d[0] != "site2" {
		t.Fatalf("dropped = %v, want [site2]", d)
	}
}

// TestMergeQueryDegraded: the merge-table path drops a failing worker part
// under tolerance, and fails without it.
func TestMergeQueryDegraded(t *testing.T) {
	var clients []federation.WorkerClient
	var bad *faultinject.Client
	for i := 0; i < 3; i++ {
		w := chaosWorker(t, fmt.Sprintf("site%d", i), "edsd", 10*(i+1))
		if i == 1 {
			bad = faultinject.Wrap(w)
			clients = append(clients, bad)
		} else {
			clients = append(clients, w)
		}
	}
	newM := func(tol federation.Tolerance) *federation.Master {
		m, err := federation.NewMaster(clients, nil, federation.Security{},
			federation.WithBreaker(breakerOff), federation.WithTolerance(tol))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		return m
	}

	// Strict master: a failing part fails the query.
	strict := newM(federation.Tolerance{})
	bad.FailN("QueryCtx", 1)
	if _, err := strict.MergeQuery([]string{"edsd"}, "SELECT count(*) AS n FROM data"); err == nil {
		t.Fatal("strict MergeQuery with failing part succeeded, want error")
	}

	// Tolerant master: the failing part is dropped and named.
	tolerant := newM(federation.Tolerance{MinWorkers: 2})
	bad.FailN("QueryCtx", 1)
	tab, dropped, err := tolerant.MergeQueryDegraded([]string{"edsd"}, "SELECT count(*) AS n FROM data")
	if err != nil {
		t.Fatalf("degraded MergeQuery: %v", err)
	}
	if len(dropped) != 1 || dropped[0] != "site1" {
		t.Fatalf("dropped = %v, want [site1]", dropped)
	}
	if n := tab.Col(0).Int64s()[0]; n != 40 {
		t.Fatalf("partial count = %v, want 40 (sites 0,2)", n)
	}
}

// TestChaosFlapping drives repeated steps while a goroutine flaps two
// workers up and down; run under -race this exercises the breaker, retry
// and degraded paths concurrently. Every step must either succeed or fail
// with a federation error — never panic or deadlock.
func TestChaosFlapping(t *testing.T) {
	var clients []federation.WorkerClient
	var flappers []*faultinject.Client
	for i := 0; i < 4; i++ {
		w := chaosWorker(t, fmt.Sprintf("site%d", i), "edsd", 10)
		if i >= 2 {
			fi := faultinject.Wrap(w)
			flappers = append(flappers, fi)
			clients = append(clients, federation.WithRetry(fi, fastRetry))
		} else {
			clients = append(clients, w)
		}
	}
	m, err := federation.NewMaster(clients, nil, federation.Security{},
		federation.WithBreaker(federation.BreakerConfig{FailureThreshold: 2, Cooldown: time.Millisecond, ProbeInterval: -1}),
		federation.WithTolerance(federation.Tolerance{MinWorkers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		down := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, fi := range flappers {
				if down {
					fi.SetDown()
				} else {
					fi.SetUp()
				}
			}
			down = !down
			time.Sleep(time.Millisecond)
		}
	}()

	succeeded := 0
	for i := 0; i < 30; i++ {
		sess, err := m.NewSession(nil)
		if err != nil {
			t.Fatal(err)
		}
		total, err := sess.Aggregate(federation.LocalRunSpec{Func: "test_sums", Vars: []string{"age"}})
		if err != nil {
			if !strings.Contains(err.Error(), "federation") && !strings.Contains(err.Error(), "worker") {
				t.Fatalf("step %d: unexpected error shape: %v", i, err)
			}
			continue
		}
		n, _ := total.Float("n")
		if n < 20 || n > 40 {
			t.Fatalf("step %d: n = %v outside [20,40]", i, n)
		}
		succeeded++
		m.ProbeNow() // let recovered workers rejoin between steps
	}
	close(stop)
	wg.Wait()
	if succeeded == 0 {
		t.Fatal("no step succeeded under flapping chaos; quorum of 2 healthy workers should carry")
	}
}
