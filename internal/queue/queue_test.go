package queue

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// await polls r until task id reaches a terminal state and returns its
// record.
func await(t *testing.T, r *Runner, id string) *TaskInfo {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, info := range r.List() {
			if info.ID == id && (info.State == Success || info.State == Failure) {
				return info
			}
		}
	}
	t.Fatalf("task %s did not finish", id)
	return nil
}

// TestBrokerCapacity: past the broker's bound of waiting tasks, Submit
// refuses and records the task as failed.
func TestBrokerCapacity(t *testing.T) {
	r := NewRunner(NewBroker(0, 2), 1)
	defer r.Close()
	release, started := make(chan struct{}), make(chan struct{})
	r.Submit("hold", func(context.Context) (any, error) { close(started); <-release; return nil, nil })
	<-started // the only goroutine is busy: what follows waits in the queue
	noop := func(context.Context) (any, error) { return nil, nil }
	for i := 0; i < 2; i++ {
		if _, err := r.Submit("wait", noop); err != nil {
			t.Fatalf("submission %d within the bound: %v", i, err)
		}
	}
	if r.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", r.Depth())
	}
	id, err := r.Submit("over", noop)
	if err == nil {
		t.Fatal("expected full-queue error")
	}
	if info := await(t, r, id); info.State != Failure || info.Error != err.Error() {
		t.Fatalf("refused task: state=%s err=%q", info.State, info.Error)
	}
	close(release)
}

// TestBrokerClose: a closed runner refuses every submission and records it
// as failed without running it.
func TestBrokerClose(t *testing.T) {
	r := NewRunner(NewBroker(0, 0), 1)
	r.Close()
	var ran atomic.Bool
	id, err := r.Submit("late", func(context.Context) (any, error) { ran.Store(true); return nil, nil })
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
	if info := await(t, r, id); info.State != Failure || ran.Load() {
		t.Fatalf("refused task: state=%s, ran=%v", info.State, ran.Load())
	}
}

// TestRunnerCloseCancelsRunningTask: Close cancels the context of a running
// task and fails a queued one without running it.
func TestRunnerCloseCancelsRunningTask(t *testing.T) {
	r := NewRunner(NewBroker(0, 0), 1)
	started := make(chan struct{})
	running, _ := r.Submit("running", func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	var ran atomic.Bool
	queued, _ := r.Submit("queued", func(context.Context) (any, error) { ran.Store(true); return nil, nil })
	r.Close()
	if info := await(t, r, running); info.State != Failure || info.Error != context.Canceled.Error() {
		t.Fatalf("running task: state=%s err=%q", info.State, info.Error)
	}
	if info := await(t, r, queued); info.State != Failure || ran.Load() {
		t.Fatalf("queued task: state=%s, ran=%v", info.State, ran.Load())
	}
	if r.Depth() != 0 || r.Running() != 0 {
		t.Fatalf("after Close: depth=%d running=%d", r.Depth(), r.Running())
	}
}

// TestShutdownDrains: Shutdown lets a running task finish, and past its
// deadline cancels the one still running and reports the deadline.
func TestShutdownDrains(t *testing.T) {
	r := NewRunner(NewBroker(0, 0), 2)
	release := make(chan struct{})
	finishing, _ := r.Submit("finishing", func(context.Context) (any, error) { <-release; return "done", nil })
	stuck, _ := r.Submit("stuck", func(ctx context.Context) (any, error) { <-ctx.Done(); return nil, ctx.Err() })
	for r.Running() != 2 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := r.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want the deadline", err)
	}
	if info := await(t, r, finishing); info.State != Success || string(info.Result) != `"done"` {
		t.Fatalf("finishing task: state=%s result=%s", info.State, info.Result)
	}
	if info := await(t, r, stuck); info.State != Failure {
		t.Fatalf("stuck task: state=%s", info.State)
	}
}

func TestRunnerLifecycle(t *testing.T) {
	r := NewRunner(NewBroker(0, 0), 2)
	defer r.Close()
	x := 21.0
	id, err := r.Submit("double", func(context.Context) (any, error) { return x * 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	info := await(t, r, id)
	if info.State != Success {
		t.Fatalf("state = %s err=%s", info.State, info.Error)
	}
	var out float64
	json.Unmarshal(info.Result, &out)
	if out != 42 {
		t.Fatalf("result = %v", out)
	}
	if info.Finished.IsZero() {
		t.Fatal("finished timestamp missing")
	}
}

// TestRunnerFailureRunsOnce: a task that returns an error is not retried.
func TestRunnerFailureRunsOnce(t *testing.T) {
	r := NewRunner(NewBroker(0, 0), 1)
	defer r.Close()
	var calls atomic.Int32
	id, _ := r.Submit("boom", func(context.Context) (any, error) {
		calls.Add(1)
		return nil, fmt.Errorf("kaput")
	})
	info := await(t, r, id)
	if info.State != Failure || info.Error != "kaput" {
		t.Fatalf("state=%s err=%q", info.State, info.Error)
	}
	// A later task proves the goroutine is free, so a retry would have run.
	await(t, r, must(r.Submit("after", func(context.Context) (any, error) { return nil, nil })))
	if c := calls.Load(); c != 1 {
		t.Fatalf("task ran %d times, want 1", c)
	}
}

// TestRunnerPanicFails: a panicking task ends in Failure with the panic's
// text, and the runner's only goroutine goes on to run the next task.
func TestRunnerPanicFails(t *testing.T) {
	r := NewRunner(NewBroker(0, 0), 1)
	defer r.Close()
	id, _ := r.Submit("panics", func(context.Context) (any, error) { panic("boom") })
	if info := await(t, r, id); info.State != Failure || !strings.Contains(info.Error, "boom") {
		t.Fatalf("state=%s err=%q", info.State, info.Error)
	}
	if info := await(t, r, must(r.Submit("next", func(context.Context) (any, error) { return 1, nil }))); info.State != Success {
		t.Fatalf("next task: state=%s err=%q", info.State, info.Error)
	}
	if r.Running() != 0 {
		t.Fatalf("running = %d after the panic", r.Running())
	}
}

func must(id string, err error) string {
	if err != nil {
		panic(err)
	}
	return id
}

func TestRunnerConcurrency(t *testing.T) {
	r := NewRunner(NewBroker(0, 0), 4)
	defer r.Close()
	var running, peak atomic.Int32
	slow := func(context.Context) (any, error) {
		cur := running.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		running.Add(-1)
		return nil, nil
	}
	var ids []string
	for i := 0; i < 8; i++ {
		id, _ := r.Submit("slow", slow)
		ids = append(ids, id)
	}
	for _, id := range ids {
		await(t, r, id)
	}
	if peak.Load() < 2 {
		t.Fatalf("peak concurrency = %d, want >= 2", peak.Load())
	}
	if len(r.List()) != 8 {
		t.Fatalf("List len = %d", len(r.List()))
	}
}

// TestDepthGaugeNeverNegative: the depth gauge is incremented before the
// task is handed over, so a fast goroutine can never decrement it below
// its pre-submit value (the regression was inc-after-publish racing the
// pickup's dec).
func TestDepthGaugeNeverNegative(t *testing.T) {
	r := NewRunner(NewBroker(0, 0), 4)
	defer r.Close()
	noop := func(context.Context) (any, error) { return nil, nil }

	baseline := queueDepth.Value()
	stop := make(chan struct{})
	violations := make(chan float64, 1)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := queueDepth.Value(); v < baseline {
				select {
				case violations <- v:
				default:
				}
				return
			}
		}
	}()

	var ids []string
	for i := 0; i < 200; i++ {
		id, err := r.Submit("noop", noop)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		await(t, r, id)
	}
	close(stop)
	select {
	case v := <-violations:
		t.Fatalf("depth gauge dropped to %v below baseline %v", v, baseline)
	default:
	}
	if got := queueDepth.Value(); got != baseline {
		t.Fatalf("depth gauge = %v after drain, want baseline %v", got, baseline)
	}
}

// TestWaitObservedOncePerTask: a task runs once and contributes exactly one
// queue-wait observation, stamped at its pickup.
func TestWaitObservedOncePerTask(t *testing.T) {
	r := NewRunner(NewBroker(0, 0), 1)
	defer r.Close()
	var attempts atomic.Int64
	baseline := queueWaitSeconds.Count()
	id, err := r.Submit("once", func(context.Context) (any, error) {
		attempts.Add(1)
		return "ok", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	info := await(t, r, id)
	if info.State != Success {
		t.Fatalf("state = %s, want SUCCESS (err %q)", info.State, info.Error)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("task ran %d times, want 1", got)
	}
	if got := queueWaitSeconds.Count() - baseline; got != 1 {
		t.Fatalf("wait observed %d times, want 1", got)
	}
	if info.Started.IsZero() {
		t.Fatal("Started must be stamped on pickup")
	}
}

// TestTaskStatesCounted: one task that runs to success moves the
// PENDING, STARTED and SUCCESS series of mip_queue_tasks_total by one
// each.
func TestTaskStatesCounted(t *testing.T) {
	r := NewRunner(NewBroker(0, 0), 1)
	defer r.Close()
	states := []State{Pending, Started, Success}
	before := make([]int64, len(states))
	for i, s := range states {
		before[i] = queueTasks(s).Value()
	}
	id, err := r.Submit("count", func(context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if info := await(t, r, id); info.State != Success {
		t.Fatalf("state = %s, want SUCCESS (err %q)", info.State, info.Error)
	}
	for i, s := range states {
		if got := queueTasks(s).Value() - before[i]; got != 1 {
			t.Errorf("%s moved by %d, want 1", s, got)
		}
	}
}
