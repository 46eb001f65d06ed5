package federation

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mip/internal/engine"
)

// blockingCancelPart is a merge-table part whose QueryCtx parks until the
// statement's context dies, so a worker step stays "running" until it is
// cancelled; the observed context cause is delivered on the cause channel.
type blockingCancelPart struct {
	started chan struct{}
	cause   chan error
	once    sync.Once
}

func newBlockingCancelPart() *blockingCancelPart {
	return &blockingCancelPart{started: make(chan struct{}), cause: make(chan error, 4)}
}

func (p *blockingCancelPart) PartName() string { return "bp" }

func (p *blockingCancelPart) QueryCtx(ctx context.Context, _ string) (*engine.Table, error) {
	p.once.Do(func() { close(p.started) })
	<-ctx.Done()
	cause := context.Cause(ctx)
	p.cause <- cause
	return nil, cause
}

func (p *blockingCancelPart) waitStarted(t *testing.T) {
	t.Helper()
	select {
	case <-p.started:
	case <-time.After(5 * time.Second):
		t.Fatal("step never reached the blocking part")
	}
}

func (p *blockingCancelPart) waitCause(t *testing.T) error {
	t.Helper()
	select {
	case err := <-p.cause:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("blocking part never observed a cancellation")
		return nil
	}
}

// slowWorker builds a worker whose "slowtbl" view blocks inside the engine
// until the running statement is cancelled.
func slowWorker(t *testing.T, id string) (*Worker, *blockingCancelPart) {
	t.Helper()
	db := newWorkerDB(t, "edsd", 30, 0)
	bp := newBlockingCancelPart()
	db.RegisterMerge("slowtbl", &engine.MergeTable{
		Schema:    engine.Schema{{Name: "age", Type: engine.Float64}},
		TableName: "slowtbl",
		Parts:     []engine.Part{bp},
	})
	return NewWorker(id, db), bp
}

// TestWorkerCancelJobMidStep kills a running /localrun step through
// Worker.CancelJob and checks the whole chain: the job's engine statement
// is registered under the job id, the blocked query observes the
// cancellation cause mid-execution, and LocalRun unwinds with
// ErrQueryCancelled.
func TestWorkerCancelJobMidStep(t *testing.T) {
	w, bp := slowWorker(t, "w0")
	const jobID = "exp-cancel/step-1"

	done := make(chan error, 1)
	go func() {
		_, err := w.LocalRun(LocalRunRequest{
			JobID: jobID, Func: "test_sums",
			DataQuery: `SELECT age FROM slowtbl`,
		})
		done <- err
	}()
	bp.waitStarted(t)

	// While blocked, the step's statement must be visible in the active
	// registry tagged with the job id.
	tagged := false
	for _, q := range engine.Queries.List() {
		if q.Job == jobID {
			tagged = true
		}
	}
	if !tagged {
		t.Errorf("no active query tagged with job %q: %+v", jobID, engine.Queries.List())
	}

	if !w.CancelJob(jobID) {
		t.Fatal("CancelJob found no live job")
	}
	select {
	case err := <-done:
		if !errors.Is(err, engine.ErrQueryCancelled) {
			t.Fatalf("LocalRun error = %v, want ErrQueryCancelled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not unwind after CancelJob")
	}
	if err := bp.waitCause(t); !errors.Is(err, engine.ErrQueryCancelled) {
		t.Fatalf("part context cause = %v, want ErrQueryCancelled", err)
	}
	// The job is finished now; a second cancel must report no live job.
	if w.CancelJob(jobID) {
		t.Fatal("CancelJob reported true for a finished job")
	}
}

// TestSessionCancelStopsWorkersMidStep cancels a master-side experiment
// while a worker step is blocked inside the engine, and checks the cancel
// propagates end to end: the session's LocalRun fails with
// ErrQueryCancelled, the worker's blocked statement observes the cause,
// and later steps on the session fail fast.
func TestSessionCancelStopsWorkersMidStep(t *testing.T) {
	w, bp := slowWorker(t, "w0")
	m, err := NewMaster([]WorkerClient{w}, nil, Security{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sess, err := m.NewSession([]string{"edsd"})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := sess.LocalRun(LocalRunSpec{Func: "test_sums", DataQuery: `SELECT age FROM slowtbl`})
		done <- err
	}()
	bp.waitStarted(t)
	sess.Cancel()

	select {
	case err := <-done:
		if !errors.Is(err, engine.ErrQueryCancelled) {
			t.Fatalf("session LocalRun error = %v, want ErrQueryCancelled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session did not unwind after Cancel")
	}
	if err := bp.waitCause(t); !errors.Is(err, engine.ErrQueryCancelled) {
		t.Fatalf("worker part context cause = %v, want ErrQueryCancelled", err)
	}
	// The session stays cancelled: further steps fail before reaching workers.
	if _, err := sess.LocalRun(LocalRunSpec{Func: "test_sums", Vars: []string{"age"}}); !errors.Is(err, engine.ErrQueryCancelled) {
		t.Fatalf("post-cancel LocalRun error = %v, want ErrQueryCancelled", err)
	}
}

// TestHTTPCancelJob exercises the wire path: a /localrun over HTTP blocks
// in the worker engine, POST /cancel (via HTTPWorkerClient.CancelJob)
// aborts it, and the HTTP LocalRun call returns the cancelled error.
func TestHTTPCancelJob(t *testing.T) {
	w, bp := slowWorker(t, "w0")
	srv := httptest.NewServer((&WorkerServer{Worker: w}).Handler())
	defer srv.Close()
	c := NewHTTPWorkerClient("w0", srv.URL)
	const jobID = "exp-http-cancel/step-1"

	done := make(chan error, 1)
	go func() {
		_, err := c.LocalRun(LocalRunRequest{
			JobID: jobID, Func: "test_sums",
			DataQuery: `SELECT age FROM slowtbl`,
		})
		done <- err
	}()
	bp.waitStarted(t)

	if !c.CancelJob(jobID) {
		t.Fatal("HTTP CancelJob reported no live job")
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "cancelled") {
			t.Fatalf("HTTP LocalRun error = %v, want a cancelled error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("HTTP LocalRun did not unwind after CancelJob")
	}
	if err := bp.waitCause(t); !errors.Is(err, engine.ErrQueryCancelled) {
		t.Fatalf("worker part context cause = %v, want ErrQueryCancelled", err)
	}
}

// TestCancelJobAbortsLoopback cancels a step whose body, not its relation
// query, is blocked: the body's loopback query reads a blocking part. The
// job's cancellation — Worker.CancelJob in process, POST /cancel over HTTP
// — must reach the loopback through the step's context, so the part
// observes ErrQueryCancelled and the step unwinds with it.
func TestCancelJobAbortsLoopback(t *testing.T) {
	for _, overHTTP := range []bool{false, true} {
		t.Run(fmt.Sprintf("http=%v", overHTTP), func(t *testing.T) {
			w, bp := slowWorker(t, "w0")
			var c WorkerClient = w
			if overHTTP {
				srv := httptest.NewServer((&WorkerServer{Worker: w}).Handler())
				defer srv.Close()
				c = NewHTTPWorkerClient("w0", srv.URL)
			}
			const jobID = "exp-loopback-cancel/step-1"

			done := make(chan error, 1)
			go func() {
				_, err := c.LocalRun(LocalRunRequest{
					JobID: jobID, Func: "test_loopback_slow",
					DataQuery: `SELECT age FROM data`,
				})
				done <- err
			}()
			bp.waitStarted(t)

			if !c.CancelJob(jobID) {
				t.Fatal("CancelJob found no live job")
			}
			select {
			case err := <-done:
				if overHTTP && (err == nil || !strings.Contains(err.Error(), "cancelled")) {
					t.Fatalf("HTTP LocalRun error = %v, want a cancelled error", err)
				}
				if !overHTTP && !errors.Is(err, engine.ErrQueryCancelled) {
					t.Fatalf("LocalRun error = %v, want ErrQueryCancelled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("step did not unwind after CancelJob")
			}
			if err := bp.waitCause(t); !errors.Is(err, engine.ErrQueryCancelled) {
				t.Fatalf("part context cause = %v, want ErrQueryCancelled", err)
			}
		})
	}
}
