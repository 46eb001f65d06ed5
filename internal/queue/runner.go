// Package queue runs the platform's asynchronous tasks, the role Celery on
// RabbitMQ plays in the paper's deployment: Submit hands a closure to a
// bounded pool of goroutines and returns a task id at once, each task runs
// exactly once, and its record (Celery state, timestamps, result) stays
// readable, so the dashboard can poll an experiment until it completes.
package queue

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mip/internal/obs"
)

// ErrClosed is returned by Submit once the runner is closed or shut down.
var ErrClosed = errors.New("queue: runner closed")

// Queue metrics, registered eagerly for GET /metrics.
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
	for _, s := range []State{Pending, Started, Success, Failure} {
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
)

// Func is one task's work. Its result is stored JSON-encoded as the task's
// Result; an error or a panic ends the task in Failure.
type Func func(ctx context.Context) (any, error)

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
}

// Broker holds the runner's admission bound: how many submitted tasks may
// wait for a goroutine before Submit refuses.
type Broker struct{ capacity int }

// NewBroker returns the admission bound for a runner: capacity waiting
// tasks (default 1024). The first argument is ignored.
func NewBroker(_, capacity int) *Broker {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Broker{capacity: capacity}
}

type task struct {
	info *TaskInfo
	fn   Func
}

// Runner serves submitted tasks from a bounded channel with a fixed pool of
// goroutines and keeps every task's record in memory.
type Runner struct {
	queue   chan task
	mu      sync.Mutex
	tasks   map[string]*TaskInfo
	nextID  int
	closed  bool // set, and queue closed, when the runner stops
	abort   context.CancelFunc
	wg      sync.WaitGroup
	running atomic.Int64 // this runner's share of queueRunning
}

// NewRunner starts concurrency goroutines (default 2) serving tasks
// admitted under b's bound.
func NewRunner(b *Broker, concurrency int) *Runner {
	if concurrency <= 0 {
		concurrency = 2
	}
	ctx, abort := context.WithCancel(context.Background())
	r := &Runner{queue: make(chan task, b.capacity), tasks: make(map[string]*TaskInfo), abort: abort}
	for i := 0; i < concurrency; i++ {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for t := range r.queue {
				r.execute(ctx, t)
			}
		}()
	}
	return r
}

// Submit queues fn under name and returns its task id at once. It is
// refused, with the task recorded as failed, when the runner is closed or
// its bound of waiting tasks is reached.
func (r *Runner) Submit(name string, fn Func) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	id := fmt.Sprintf("task-%d", r.nextID)
	t := &TaskInfo{ID: id, Name: name, State: Pending, Created: time.Now()}
	r.tasks[id] = t
	if r.closed {
		r.end(t, Failure, ErrClosed.Error())
		return id, ErrClosed
	}
	// Count before the send: a goroutine may take the task and decrement first.
	queueDepth.Inc()
	select {
	case r.queue <- task{t, fn}:
		queueTasks(Pending).Inc()
		return id, nil
	default:
		queueDepth.Dec()
		err := fmt.Errorf("queue: full (%d tasks waiting)", cap(r.queue))
		r.end(t, Failure, err.Error())
		return id, err
	}
}

// Depth reports this runner's submitted tasks not yet picked up by a
// worker goroutine.
func (r *Runner) Depth() int { return len(r.queue) }

// Running reports this runner's tasks currently executing.
func (r *Runner) Running() int { return int(r.running.Load()) }

// end moves a task to a terminal state. Callers hold r.mu.
func (r *Runner) end(t *TaskInfo, state State, errMsg string) {
	t.State, t.Error, t.Finished = state, errMsg, time.Now()
	queueTasks(state).Inc()
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

// Close stops the pool at once: queued tasks never run and running ones
// see a cancelled context. For a graceful drain use Shutdown.
func (r *Runner) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r.Shutdown(ctx)
}

// Shutdown drains the runner: it refuses new tasks, fails the queued ones,
// lets running tasks finish and waits until the pool is idle or ctx
// expires, when the running tasks are cancelled (and still awaited).
func (r *Runner) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.queue)
	}
	r.mu.Unlock()
	stop := context.AfterFunc(ctx, r.abort)
	r.wg.Wait()
	var err error
	if !stop() { // ctx ended first and cancelled the running tasks
		err = ctx.Err()
	}
	r.abort()
	return err
}

// execute runs one task taken off the queue, or fails it when the runner
// stopped while it waited. The task ends in a deferred call, so a panic in
// it ends the task in Failure and the goroutine lives on.
func (r *Runner) execute(ctx context.Context, t task) {
	queueDepth.Dec()
	info := t.info
	r.mu.Lock()
	if r.closed {
		r.end(info, Failure, "runner stopped")
		r.mu.Unlock()
		return
	}
	info.State, info.Started = Started, time.Now()
	queueTasks(Started).Inc()
	queueWaitSeconds.Observe(info.Started.Sub(info.Created).Seconds())
	r.mu.Unlock()
	queueRunning.Inc()
	r.running.Add(1)
	var res any
	var err error
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("task panicked: %v", p)
		}
		queueRunning.Dec()
		r.running.Add(-1)
		r.mu.Lock()
		state, msg := Success, ""
		if err != nil {
			state, msg = Failure, err.Error()
		} else if res != nil {
			info.Result, _ = json.Marshal(res)
		}
		r.end(info, state, msg)
		queueRunSeconds.Observe(info.Finished.Sub(info.Started).Seconds())
		r.mu.Unlock()
	}()
	res, err = t.fn(ctx)
}
