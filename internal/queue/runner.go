package queue

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mip/internal/obs"
)

// Queue metrics, registered eagerly for GET /metrics. Depth counts
// submitted-but-not-started tasks (a retried task re-enters the queue);
// running counts tasks inside a handler.
var (
	queueDepth = obs.GetGauge("mip_queue_depth",
		"Tasks submitted and waiting for a worker goroutine.")
	queueRunning = obs.GetGauge("mip_queue_running",
		"Tasks currently executing in a handler.")
	queueWaitSeconds = obs.GetHistogram("mip_queue_task_wait_seconds",
		"Time tasks spend queued before a worker picks them up.", nil)
	queueRunSeconds = obs.GetHistogram("mip_queue_task_run_seconds",
		"Time tasks spend executing in their handler.", nil)
)

func queueTasks(state State) *obs.Counter {
	return obs.GetCounter("mip_queue_tasks_total",
		"Task state transitions by resulting state.",
		obs.Label{Key: "state", Value: string(state)})
}

func init() {
	// Pre-create the per-state series so a fresh process exposes the family
	// (at zero) before any task runs.
	for _, s := range []State{Pending, Started, Success, Failure, Retried} {
		queueTasks(s)
	}
}

// State mirrors Celery's task states, which the paper's stack exposes to
// the dashboard.
type State string

// Task states.
const (
	Pending State = "PENDING"
	Started State = "STARTED"
	Success State = "SUCCESS"
	Failure State = "FAILURE"
	Retried State = "RETRY"
)

// Handler executes one task type; the returned value is stored as the
// task's result (JSON-encoded).
type Handler func(ctx context.Context, payload json.RawMessage) (any, error)

// TaskInfo is the runner's view of one submitted task.
type TaskInfo struct {
	ID       string
	Name     string
	State    State
	Result   json.RawMessage
	Error    string
	Created  time.Time
	Started  time.Time
	Finished time.Time

	done chan struct{} // closed at the terminal transition
}

// Runner dispatches submitted tasks to handlers through the broker using a
// pool of worker goroutines, and keeps results in an in-memory backend.
type Runner struct {
	broker  *Broker
	queueN  string
	mu      sync.Mutex
	handler map[string]Handler
	tasks   map[string]*TaskInfo
	nextID  int
	// consumeCancel stops the pull loop; handlerCancel additionally aborts
	// in-flight handlers. Graceful shutdown cancels only the former so
	// running experiments can finish.
	consumeCancel context.CancelFunc
	handlerCancel context.CancelFunc
	wg            sync.WaitGroup
	now           func() time.Time
	// Per-runner mirrors of the process-wide depth/running gauges.
	depth   atomic.Int64
	running atomic.Int64
}

// NewRunner creates a runner over the broker with the given concurrency.
func NewRunner(b *Broker, concurrency int) *Runner {
	if concurrency <= 0 {
		concurrency = 2
	}
	consumeCtx, consumeCancel := context.WithCancel(context.Background())
	handlerCtx, handlerCancel := context.WithCancel(context.Background())
	r := &Runner{
		broker:        b,
		queueN:        "tasks",
		handler:       make(map[string]Handler),
		tasks:         make(map[string]*TaskInfo),
		consumeCancel: consumeCancel,
		handlerCancel: handlerCancel,
		now:           time.Now,
	}
	for i := 0; i < concurrency; i++ {
		r.wg.Add(1)
		go r.loop(consumeCtx, handlerCtx)
	}
	return r
}

// Register installs a handler for a task name.
func (r *Runner) Register(name string, h Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.handler[name] = h
}

// Submit enqueues a task and returns its id immediately (the asynchronous
// experiment-submission flow).
func (r *Runner) Submit(name string, payload any) (string, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return "", fmt.Errorf("queue: encoding payload: %w", err)
	}
	r.mu.Lock()
	r.nextID++
	id := fmt.Sprintf("task-%d", r.nextID)
	r.tasks[id] = &TaskInfo{ID: id, Name: name, State: Pending, Created: r.now(), done: make(chan struct{})}
	r.mu.Unlock()
	msg := &Message{ID: id, Body: body, Headers: map[string]string{"task": name}}
	// Count the task before publishing: once Publish returns, a worker may
	// already have picked it up and decremented the gauge — incrementing
	// after the fact would race it below zero. Roll back if publish fails.
	queueDepth.Inc()
	r.depth.Add(1)
	if err := r.broker.Publish(r.queueN, msg); err != nil {
		queueDepth.Dec()
		r.depth.Add(-1)
		r.mu.Lock()
		r.end(r.tasks[id], Failure, err.Error())
		r.mu.Unlock()
		return id, err
	}
	queueTasks(Pending).Inc()
	return id, nil
}

// Depth reports this runner's submitted tasks not yet picked up by a
// worker goroutine.
func (r *Runner) Depth() int { return int(r.depth.Load()) }

// Running reports this runner's tasks currently executing in a handler.
func (r *Runner) Running() int { return int(r.running.Load()) }

// Info returns a snapshot of the task's state, or nil if unknown.
func (r *Runner) Info(id string) *TaskInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tasks[id]
	if !ok {
		return nil
	}
	cp := *t
	return &cp
}

// Wait blocks until the task reaches a terminal state or the context ends.
func (r *Runner) Wait(ctx context.Context, id string) (*TaskInfo, error) {
	r.mu.Lock()
	t := r.tasks[id]
	r.mu.Unlock()
	if t == nil {
		return nil, fmt.Errorf("queue: unknown task %q", id)
	}
	select {
	case <-t.done:
		return r.Info(id), nil
	case <-ctx.Done():
		return r.Info(id), ctx.Err()
	}
}

// end moves a task to a terminal state and wakes its waiters. Callers hold
// r.mu.
func (r *Runner) end(t *TaskInfo, state State, errMsg string) {
	t.State, t.Error, t.Finished = state, errMsg, r.now()
	queueTasks(state).Inc()
	close(t.done)
}

// List returns snapshots of all tasks.
func (r *Runner) List() []*TaskInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*TaskInfo, 0, len(r.tasks))
	for _, t := range r.tasks {
		cp := *t
		out = append(out, &cp)
	}
	return out
}

// Close stops the worker pool immediately (queued tasks are abandoned and
// in-flight handlers see a cancelled context). For a graceful drain use
// Shutdown.
func (r *Runner) Close() {
	r.consumeCancel()
	r.handlerCancel()
	r.wg.Wait()
	r.sweep("runner closed")
}

// Shutdown drains the runner: it stops pulling new work, lets in-flight
// handlers finish, and waits until the pool is idle or ctx expires. On
// deadline the in-flight handlers are cancelled and their tasks marked
// failed. Tasks still queued when the pool stops are swept to Failure so
// callers never wait forever on an abandoned task.
func (r *Runner) Shutdown(ctx context.Context) error {
	r.consumeCancel()
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		r.handlerCancel()
		<-done
	}
	r.handlerCancel()
	r.sweep("runner shut down")
	return err
}

// sweep fails every task that will never reach a terminal state because the
// pool has stopped.
func (r *Runner) sweep(reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.tasks {
		if t.State == Pending || t.State == Started || t.State == Retried {
			// Pending/Retried tasks still sit in the queue and were counted
			// in the depth gauges; failing them here dequeues them.
			if t.State == Pending || t.State == Retried {
				queueDepth.Dec()
				r.depth.Add(-1)
			}
			r.end(t, Failure, reason)
		}
	}
}

func (r *Runner) loop(consumeCtx, handlerCtx context.Context) {
	defer r.wg.Done()
	for {
		d, err := r.broker.Consume(consumeCtx, r.queueN)
		if err != nil {
			return
		}
		r.execute(handlerCtx, d)
	}
}

func (r *Runner) execute(ctx context.Context, d *Delivery) {
	id := d.Message.ID
	name := d.Message.Headers["task"]
	started := r.now()
	queueDepth.Dec()
	r.depth.Add(-1)
	queueRunning.Inc()
	r.running.Add(1)
	defer func() {
		queueRunning.Dec()
		r.running.Add(-1)
	}()
	r.mu.Lock()
	h := r.handler[name]
	if t := r.tasks[id]; t != nil {
		t.State = Started
		// Queue wait is submission→first pickup; a redelivered (retried)
		// task keeps its original Started stamp and is not re-observed.
		if t.Started.IsZero() {
			t.Started = started
			queueWaitSeconds.Observe(started.Sub(t.Created).Seconds())
		}
	}
	r.mu.Unlock()

	finish := func(state State, result any, errMsg string) {
		r.mu.Lock()
		defer r.mu.Unlock()
		t := r.tasks[id]
		if t == nil {
			return
		}
		r.end(t, state, errMsg)
		queueRunSeconds.Observe(t.Finished.Sub(started).Seconds())
		if result != nil {
			if enc, err := json.Marshal(result); err == nil {
				t.Result = enc
			}
		}
	}

	if h == nil {
		d.Ack()
		finish(Failure, nil, fmt.Sprintf("no handler for task %q", name))
		return
	}
	res, err := h(ctx, d.Message.Body)
	if err != nil {
		if d.Message.Attempts() < r.broker.maxRetries {
			r.mu.Lock()
			if t := r.tasks[id]; t != nil {
				t.State = Retried
			}
			r.mu.Unlock()
			queueTasks(Retried).Inc()
			queueDepth.Inc()
			r.depth.Add(1)
			d.Nack() // redeliver
			return
		}
		d.Ack()
		finish(Failure, nil, err.Error())
		return
	}
	d.Ack()
	finish(Success, res, "")
}
