// Package faultinject wraps a federation.WorkerClient with scripted
// failures for chaos testing the fault-tolerance layer: per-method error
// schedules (fail N times then recover), injected latency, and up/down
// flapping. Every call of the contract except ID is gated, so a wrapped
// worker keeps the master's result caching, cancellation and query
// contexts. All state is mutex-protected so schedules can be mutated while
// a master hammers the client from many goroutines (the -race chaos tests
// depend on this).
package faultinject

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mip/internal/engine"
	"mip/internal/federation"
)

// TransientError is a retryable injected failure: it implements the
// Temporary() marker the federation retry layer classifies on.
type TransientError struct{ Reason string }

func (e *TransientError) Error() string {
	if e.Reason == "" {
		return "faultinject: transient failure"
	}
	return "faultinject: " + e.Reason
}

// Temporary marks the error retryable (net.Error convention).
func (e *TransientError) Temporary() bool { return true }

// Step is one scripted outcome for a method call: an error to return
// and/or a delay to impose before the call proceeds.
type Step struct {
	Err   error
	Delay time.Duration
}

// Client wraps an inner worker client with scripted fault schedules. ID
// passes straight through to the embedded client.
type Client struct {
	federation.WorkerClient

	mu    sync.Mutex
	steps map[string][]Step // method → FIFO schedule
	down  bool              // hard down: every call fails
	calls map[string]int    // method → observed call count
}

// Wrap builds a fault-injecting client around inner.
func Wrap(inner federation.WorkerClient) *Client {
	return &Client{
		WorkerClient: inner,
		steps:        make(map[string][]Step),
		calls:        make(map[string]int),
	}
}

// Script appends outcomes to a method's schedule, keyed by the contract's
// method name ("DatasetInfo", "DataStamp", "LocalRun", "CancelJob" or
// "QueryCtx"). Each call consumes one step; an exhausted schedule passes
// calls through untouched.
func (c *Client) Script(method string, steps ...Step) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.steps[method] = append(c.steps[method], steps...)
}

// FailN schedules n transient failures on a method, after which calls
// succeed again — the "flaky worker" shape.
func (c *Client) FailN(method string, n int) {
	steps := make([]Step, n)
	for i := range steps {
		steps[i] = Step{Err: &TransientError{Reason: fmt.Sprintf("scripted failure %d/%d", i+1, n)}}
	}
	c.Script(method, steps...)
}

// SetDown marks the worker hard-down: every call on every method fails
// until SetUp. Use for permanently dead workers and flapping chaos.
func (c *Client) SetDown() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.down = true
}

// SetUp brings the worker back.
func (c *Client) SetUp() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.down = false
}

// Calls reports how many times a method has been invoked (including
// calls that were failed by the schedule or down state).
func (c *Client) Calls(method string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[method]
}

// gate records the call and pops the method's next scripted step. It
// returns the injected error, if any; delays are served outside the lock.
func (c *Client) gate(method string) error {
	c.mu.Lock()
	c.calls[method]++
	var step Step
	if q := c.steps[method]; len(q) > 0 {
		step = q[0]
		c.steps[method] = q[1:]
	}
	down := c.down
	c.mu.Unlock()
	if step.Delay > 0 {
		time.Sleep(step.Delay)
	}
	if down {
		return &TransientError{Reason: "worker down"}
	}
	return step.Err
}

// DatasetInfo implements federation.WorkerClient.
func (c *Client) DatasetInfo() (federation.DatasetInfo, error) {
	if err := c.gate("DatasetInfo"); err != nil {
		return federation.DatasetInfo{}, err
	}
	return c.WorkerClient.DatasetInfo()
}

// DataStamp implements federation.WorkerClient.
func (c *Client) DataStamp() (string, error) {
	if err := c.gate("DataStamp"); err != nil {
		return "", err
	}
	return c.WorkerClient.DataStamp()
}

// LocalRun implements federation.WorkerClient.
func (c *Client) LocalRun(req federation.LocalRunRequest) (federation.LocalRunResponse, error) {
	if err := c.gate("LocalRun"); err != nil {
		return federation.LocalRunResponse{}, err
	}
	return c.WorkerClient.LocalRun(req)
}

// CancelJob implements federation.WorkerClient: a gated cancel finds no
// job.
func (c *Client) CancelJob(jobID string) bool {
	if err := c.gate("CancelJob"); err != nil {
		return false
	}
	return c.WorkerClient.CancelJob(jobID)
}

// QueryCtx implements federation.WorkerClient.
func (c *Client) QueryCtx(ctx context.Context, sql string) (*engine.Table, error) {
	if err := c.gate("QueryCtx"); err != nil {
		return nil, err
	}
	return c.WorkerClient.QueryCtx(ctx, sql)
}
