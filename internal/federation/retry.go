package federation

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// RetryPolicy configures retry-with-exponential-backoff-and-jitter for
// idempotent worker calls. The calls it guards are safe to replay:
// /datasets and /datastamp are reads, and /localrun is keyed by JobID so
// workers dedupe replays (see Worker.LocalRun).
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (1 = no retry). Zero and
	// negative values mean 1.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 100ms);
	// each further retry doubles it up to MaxDelay (default 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Jitter is the ± fraction applied to each backoff (default 0.2) so
	// replays from many masters don't synchronize.
	Jitter float64
	// Sleep replaces time.Sleep in tests; nil uses time.Sleep.
	Sleep func(time.Duration)
}

// DefaultRetryPolicy is the HTTP worker client's out-of-the-box policy.
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts: 3,
	BaseDelay:   100 * time.Millisecond,
	MaxDelay:    2 * time.Second,
	Jitter:      0.2,
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts <= 0 {
		return 1
	}
	return p.MaxAttempts
}

// backoff returns the delay before retry number n (n starts at 1).
func (p RetryPolicy) backoff(n int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	jitter := p.Jitter
	if jitter == 0 {
		jitter = 0.2
	}
	if jitter > 0 {
		f := 1 + jitter*(2*rand.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	if d < 0 {
		d = 0
	}
	return d
}

func (p RetryPolicy) sleep(d time.Duration) {
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

// run executes op up to MaxAttempts times, backing off between attempts.
// Non-retryable errors (permanent worker-side failures like disclosure
// control) abort immediately.
func (p RetryPolicy) run(workerID string, op func() error) error {
	attempts := p.attempts()
	var err error
	for a := 1; a <= attempts; a++ {
		if a > 1 {
			fedRetries(workerID).Inc()
			p.sleep(p.backoff(a - 1))
		}
		err = op()
		if err == nil || !IsRetryable(err) {
			return err
		}
	}
	return fmt.Errorf("federation: giving up after %d attempts: %w", attempts, err)
}

// temporary is the net.Error-style marker retryable errors implement.
type temporary interface{ Temporary() bool }

// IsRetryable reports whether a worker-call error is worth replaying:
// transport failures, timeouts and 5xx responses are; worker-side logic
// errors (bad request, disclosure control, unknown step) are not.
func IsRetryable(err error) bool {
	var t temporary
	if errors.As(err, &t) {
		return t.Temporary()
	}
	return false
}

// retryClient wraps any WorkerClient with a RetryPolicy, replaying the
// calls HTTPWorkerClient retries — DatasetInfo, DataStamp and LocalRun —
// on transient failures. Used for in-process clients (HTTPWorkerClient
// applies its own policy at the request layer). Every other call reaches
// the embedded client unchanged.
type retryClient struct {
	WorkerClient
	policy RetryPolicy
}

// WithRetry wraps a worker client so its idempotent calls retry under the
// policy.
func WithRetry(inner WorkerClient, p RetryPolicy) WorkerClient {
	return &retryClient{WorkerClient: inner, policy: p}
}

// retried runs call under the client's policy.
func retried[T any](c *retryClient, call func() (T, error)) (T, error) {
	var out T
	err := c.policy.run(c.ID(), func() error {
		var e error
		out, e = call()
		return e
	})
	return out, err
}

func (c *retryClient) DatasetInfo() (DatasetInfo, error) {
	return retried(c, c.WorkerClient.DatasetInfo)
}

func (c *retryClient) DataStamp() (string, error) {
	return retried(c, c.WorkerClient.DataStamp)
}

func (c *retryClient) LocalRun(req LocalRunRequest) (LocalRunResponse, error) {
	return retried(c, func() (LocalRunResponse, error) { return c.WorkerClient.LocalRun(req) })
}
