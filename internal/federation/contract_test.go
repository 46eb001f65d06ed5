package federation_test

// Tests for the worker contract seen through wrappers: a wrapped worker
// keeps result caching, cancellation and query contexts, the result cache
// survives a faulty worker without a stale serve, and the master's one
// per-worker snapshot feeds availability whichever path refreshed it.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/federation/faultinject"
)

// blockingPart parks every query until the statement running it is
// cancelled, announcing each start and each observed cancellation cause.
type blockingPart struct {
	started chan struct{}
	cause   chan error
}

func (p *blockingPart) PartName() string { return "blocked" }

func (p *blockingPart) QueryCtx(ctx context.Context, _ string) (*engine.Table, error) {
	p.started <- struct{}{}
	<-ctx.Done()
	p.cause <- context.Cause(ctx)
	return nil, context.Cause(ctx)
}

// blockingWorker is a worker whose data table is a merge view over a
// blockingPart: every statement reading it blocks until it is cancelled.
func blockingWorker(id string) (*federation.Worker, *blockingPart) {
	bp := &blockingPart{started: make(chan struct{}, 4), cause: make(chan error, 4)}
	db := engine.NewDB()
	db.RegisterMerge(federation.DataTable, &engine.MergeTable{
		Schema:    engine.Schema{{Name: "dataset", Type: engine.String}, {Name: "age", Type: engine.Float64}},
		TableName: "blocked",
		Parts:     []engine.Part{bp},
	})
	return federation.NewWorker(id, db), bp
}

// await receives from ch or fails the test after five seconds.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		var zero T
		return zero
	}
}

// appendRows appends n rows of dataset to a worker's data table through
// DB.Append, the way loaders write.
func appendRows(t *testing.T, db *engine.DB, dataset string, n int) {
	t.Helper()
	rows := engine.NewTable(engine.Schema{{Name: "dataset", Type: engine.String}, {Name: "age", Type: engine.Float64}})
	for i := 0; i < n; i++ {
		if err := rows.AppendRow(dataset, 60.0); err != nil {
			t.Error(err)
			return
		}
	}
	if err := db.Append(federation.DataTable, rows); err != nil {
		t.Error(err)
	}
}

func newMaster(t *testing.T, clients []federation.WorkerClient, opts ...federation.MasterOption) *federation.Master {
	t.Helper()
	m, err := federation.NewMaster(clients, nil, federation.Security{}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// TestWrappedClientKeepsContract: a worker wrapped in faultinject or in
// WithRetry keeps every capability the master uses through the contract —
// the result cache keys on its versions, Session.Cancel reaches its
// CancelJob, and killing a merge query on the master aborts its engine
// statement.
func TestWrappedClientKeepsContract(t *testing.T) {
	for _, wr := range []struct {
		name string
		wrap func(federation.WorkerClient) federation.WorkerClient
	}{
		{"faultinject", func(w federation.WorkerClient) federation.WorkerClient { return faultinject.Wrap(w) }},
		{"retry", func(w federation.WorkerClient) federation.WorkerClient { return federation.WithRetry(w, fastRetry) }},
	} {
		t.Run(wr.name, func(t *testing.T) {
			cached := newMaster(t, []federation.WorkerClient{wr.wrap(chaosWorker(t, "site0", "edsd", 20))},
				federation.WithBreaker(breakerOff), federation.WithResultCacheBytes(1<<20))
			for i := 0; i < 2; i++ {
				if _, err := cached.MergeQuery([]string{"edsd"}, `SELECT count(*) AS n FROM data`); err != nil {
					t.Fatal(err)
				}
			}
			if s := cached.ResultCacheStats(); s.Hits != 1 || s.Misses != 1 {
				t.Fatalf("result cache stats = %+v, want 1 hit / 1 miss", s)
			}

			w, bp := blockingWorker("slow-" + wr.name)
			m := newMaster(t, []federation.WorkerClient{wr.wrap(w)}, federation.WithBreaker(breakerOff))

			// An in-process step runs under a background context, so only
			// the worker's CancelJob can abort it.
			sess, err := m.NewSession(nil)
			if err != nil {
				t.Fatal(err)
			}
			stepDone := make(chan error, 1)
			go func() {
				_, err := sess.LocalRun(federation.LocalRunSpec{Func: "test_sums", DataQuery: `SELECT age FROM data`})
				stepDone <- err
			}()
			await(t, bp.started, "the step to reach the worker's engine")
			sess.Cancel()
			if err := await(t, bp.cause, "the worker's step to be cancelled"); !errors.Is(err, engine.ErrQueryCancelled) {
				t.Fatalf("worker step cause = %v, want ErrQueryCancelled", err)
			}
			if err := await(t, stepDone, "the session step to unwind"); !errors.Is(err, engine.ErrQueryCancelled) {
				t.Fatalf("session step error = %v, want ErrQueryCancelled", err)
			}

			// Killing the master's merge statement cancels its context, which
			// must reach the worker's engine statement through the wrapper.
			const tenant = "contract-test"
			sql := `SELECT count(*) AS n FROM data WHERE age > 1`
			queryDone := make(chan error, 1)
			go func() {
				_, _, err := m.MergeQueryDegradedAs(tenant, nil, sql)
				queryDone <- err
			}()
			await(t, bp.started, "the merge query to reach the worker's engine")
			killed := false
			for _, q := range engine.Queries.List() {
				if q.SQL == sql && q.Tenant == tenant {
					killed = engine.Queries.Cancel(q.ID)
					break
				}
			}
			if !killed {
				t.Fatalf("master statement %q not in the active registry: %+v", sql, engine.Queries.List())
			}
			if err := await(t, bp.cause, "the worker's statement to be cancelled"); err == nil {
				t.Fatal("worker statement ended without a cancellation cause")
			}
			if err := await(t, queryDone, "the merge query to unwind"); err == nil {
				t.Fatal("killed merge query succeeded")
			}
		})
	}
}

// TestStampFailureBypassesCache: while a worker's DataStamp probe fails the
// query bypasses the result cache (no hit, no miss, no entry served) and
// the worker stays available; once the probe recovers the next repeat
// hits.
func TestStampFailureBypassesCache(t *testing.T) {
	fi := faultinject.Wrap(chaosWorker(t, "site0", "edsd", 20))
	m := newMaster(t, []federation.WorkerClient{fi}, federation.WithBreaker(breakerOff), federation.WithResultCacheBytes(1<<20))
	sql := `SELECT count(*) AS n FROM data`
	if _, err := m.MergeQuery([]string{"edsd"}, sql); err != nil {
		t.Fatal(err)
	}
	fi.FailN("DataStamp", 1)
	got, err := m.MergeQuery([]string{"edsd"}, sql)
	if err != nil {
		t.Fatalf("query with a failing stamp probe: %v", err)
	}
	if n := got.Col(0).CastFloat64().Float64s()[0]; n != 20 {
		t.Fatalf("bypassed query count = %v, want 20", n)
	}
	if s := m.ResultCacheStats(); s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("stats after a failed probe = %+v, want the query to bypass the cache", s)
	}
	if av := m.Availability(); len(av["edsd"]) != 1 {
		t.Fatalf("availability after a failed probe = %v, want the worker kept", av)
	}
	if _, err := m.MergeQuery([]string{"edsd"}, sql); err != nil {
		t.Fatal(err)
	}
	if s := m.ResultCacheStats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats after recovery = %+v, want 1 hit / 1 miss", s)
	}
	if got := fi.Calls("DataStamp"); got != 3 {
		t.Fatalf("DataStamp probed %d times, want 3", got)
	}
}

// TestFlappingWorkerCacheNeverStale races readers through the result cache
// against DB.Append writers while one faultinject-wrapped worker flaps up
// and down and availability is re-probed. Every answer must count at least
// the rows whose append completed before the query started; queries may
// fail while the worker is down.
func TestFlappingWorkerCacheNeverStale(t *testing.T) {
	steady := chaosWorker(t, "site0", "edsd", 20)
	flapWorker := chaosWorker(t, "site1", "edsd", 30)
	flap := faultinject.Wrap(flapWorker)
	m := newMaster(t, []federation.WorkerClient{steady, flap},
		federation.WithBreaker(federation.BreakerConfig{FailureThreshold: 2, Cooldown: time.Millisecond, ProbeInterval: -1}),
		federation.WithResultCacheBytes(1<<20))

	var written atomic.Int64 // rows whose append has completed
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // writer: one row at a time to either worker
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			db := steady.DB()
			if i%2 == 1 {
				db = flapWorker.DB()
			}
			appendRows(t, db, "edsd", 1)
			written.Add(1)
		}
	}()
	go func() { // chaos: flap the worker and re-probe availability
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			if i%2 == 0 {
				flap.SetDown()
			} else {
				flap.SetUp()
			}
			m.ProbeNow()
		}
	}()

	sql := `SELECT count(*) AS n FROM data`
	var readers sync.WaitGroup
	deadline := time.Now().Add(2 * time.Second)
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for time.Now().Before(deadline) {
				floor := 50 + written.Load()
				got, err := m.MergeQuery(nil, sql)
				if err != nil {
					continue
				}
				if n := int64(got.Col(0).CastFloat64().Float64s()[0]); n < floor {
					t.Errorf("stale serve: count %d, but %d rows were written before the query", n, floor)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	bg.Wait()
	if s := m.ResultCacheStats(); s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("result cache stats = %+v, want both hits and misses under the race", s)
	}
}

// TestSnapshotRefreshedByEitherPath: a dataset added on a worker reaches
// Availability once anything refreshes that worker's snapshot — an
// availability scan, a recovery probe, or the result cache revalidating
// its stamp.
func TestSnapshotRefreshedByEitherPath(t *testing.T) {
	w := chaosWorker(t, "site0", "edsd", 20)
	fi := faultinject.Wrap(w)
	m := newMaster(t, []federation.WorkerClient{fi}, federation.WithBreaker(breakerOff), federation.WithResultCacheBytes(1<<20))
	holds := func(ds string) bool { return len(m.Availability()[ds]) == 1 }

	appendRows(t, w.DB(), "ppmi", 12)
	if holds("ppmi") {
		t.Fatal("ppmi available before any refresh")
	}
	if err := m.RefreshAvailability(); err != nil {
		t.Fatal(err)
	}
	if !holds("ppmi") {
		t.Fatalf("availability after RefreshAvailability = %v, want ppmi", m.Availability())
	}

	appendRows(t, w.DB(), "adni", 12)
	if _, err := m.MergeQuery([]string{"edsd"}, `SELECT count(*) AS n FROM data`); err != nil {
		t.Fatal(err)
	}
	if !holds("adni") {
		t.Fatalf("availability after the result cache revalidated = %v, want adni", m.Availability())
	}

	// A worker that dropped out is readmitted with its current snapshot by
	// the recovery probe.
	fi.SetDown()
	if err := m.RefreshAvailability(); err == nil {
		t.Fatal("scan of a down-only federation succeeded")
	}
	if holds("edsd") {
		t.Fatalf("availability with the worker down = %v, want none", m.Availability())
	}
	appendRows(t, w.DB(), "oasis", 12)
	fi.SetUp()
	m.ProbeNow()
	if !holds("oasis") || !holds("edsd") {
		t.Fatalf("availability after ProbeNow = %v, want the worker back with oasis", m.Availability())
	}
}
