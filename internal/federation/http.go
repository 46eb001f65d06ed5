package federation

import (
	"mip/internal/engine"
	"mip/internal/obs"

	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
	"unicode/utf8"
)

// The HTTP transport lets a Master drive Workers living in other processes
// or hosts, mirroring the paper's deployment where nodes talk through REST
// and message queues. Endpoints:
//
//	POST /localrun  — execute a local step (LocalRunRequest → LocalRunResponse)
//	POST /cancel    — abort an in-flight step by job id
//	POST /query     — run SQL against the worker engine (non-sensitive mode)
//	GET  /datasets  — list hosted datasets (+ version stamps)
//	GET  /datastamp — cheap data-change probe for the result cache
//	GET  /healthz   — liveness + worker status JSON
//	GET  /metrics   — Prometheus text exposition
//
// Envelopes and {"error": …} bodies are JSON; a /query table travels as one
// column-frame stream (engine.WriteTable). Trace context rides the
// X-MIP-Trace header (and the LocalRunRequest envelope).

// TableContentType is the media type of a /query answer.
const TableContentType = "application/vnd.mip.table"

// WorkerServer exposes a Worker over HTTP.
type WorkerServer struct {
	Worker *Worker
	// AllowRawQuery enables the /query endpoint (the remote-table path).
	// Production privacy-sensitive deployments leave it off: "the databases
	// are not explorable by users".
	AllowRawQuery bool
	// Start stamps the process start for /healthz uptime; Handler defaults
	// it to the first Handler call.
	Start time.Time
}

// Handler returns the server's HTTP mux, wrapped in the obs middleware so
// every endpoint reports request count/latency/status metrics.
func (s *WorkerServer) Handler() http.Handler {
	if s.Start.IsZero() {
		s.Start = time.Now()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /localrun", s.handleLocalRun)
	mux.HandleFunc("POST /cancel", s.handleCancel)
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /datasets", s.handleDatasets)
	mux.HandleFunc("GET /datastamp", s.handleDataStamp)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", obs.MetricsHandler())
	return obs.Middleware("worker", mux)
}

func (s *WorkerServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	ds, _ := s.Worker.Datasets()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"worker":         s.Worker.ID(),
		"uptime_seconds": time.Since(s.Start).Seconds(),
		"datasets":       len(ds),
	})
}

func (s *WorkerServer) handleLocalRun(w http.ResponseWriter, r *http.Request) {
	var req LocalRunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	// The envelope's trace field wins; the header covers clients that only
	// speak the wire protocol.
	if req.Trace == nil {
		if ref, ok := obs.ParseTraceRef(r.Header.Get(obs.TraceHeader)); ok {
			req.Trace = &ref
		}
	}
	resp, err := s.Worker.LocalRunCtx(r.Context(), req)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCancel aborts an in-flight step by job id (the master-side kill
// path). The response reports whether a live job was found.
func (s *WorkerServer) handleCancel(w http.ResponseWriter, r *http.Request) {
	var req struct {
		JobID string `json:"job_id"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"cancelled": s.Worker.CancelJob(req.JobID)})
}

func (s *WorkerServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !s.AllowRawQuery {
		writeJSON(w, http.StatusForbidden, map[string]string{"error": "raw queries disabled on this worker"})
		return
	}
	var req struct {
		SQL string `json:"sql"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	t, err := s.Worker.QueryCtx(r.Context(), req.SQL)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", TableContentType)
	// A write failing past the committed status can only cut the stream,
	// which the reader's row-count trailer turns into an error.
	_ = engine.WriteTable(w, t)
}

func (s *WorkerServer) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	info, err := s.Worker.DatasetInfo()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleDataStamp serves the cheap data-change probe the master's result
// cache polls before serving a cached entry.
func (s *WorkerServer) handleDataStamp(w http.ResponseWriter, _ *http.Request) {
	stamp, err := s.Worker.DataStamp()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"stamp": stamp})
}

// writeJSON marshals v before committing the status: a value JSON cannot
// carry (a NaN in a Transfer) answers a final 422, not an empty 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusUnprocessableEntity
		body, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// Default per-request timeouts for the HTTP worker client. Metadata calls
// (datasets, health) fail fast; run calls get room for heavy local steps.
const (
	DefaultMetaTimeout = 10 * time.Second
	DefaultRunTimeout  = 2 * time.Minute
)

// HTTPWorkerClient implements WorkerClient against a remote WorkerServer.
// Idempotent calls (/datasets, /datastamp, and /localrun — replay-safe
// because workers dedupe by JobID) retry transient failures under Retry.
type HTTPWorkerClient struct {
	WorkerID string
	BaseURL  string
	Client   *http.Client
	// MetaTimeout bounds metadata requests (/datasets); RunTimeout bounds
	// /localrun and /query. Zero values fall back to the defaults.
	MetaTimeout time.Duration
	RunTimeout  time.Duration
	// Retry is the backoff policy for idempotent calls. The zero value
	// disables retries; NewHTTPWorkerClient installs DefaultRetryPolicy.
	Retry RetryPolicy
}

// NewHTTPWorkerClient dials a worker's base URL (e.g. http://host:port).
func NewHTTPWorkerClient(id, baseURL string) *HTTPWorkerClient {
	return &HTTPWorkerClient{
		WorkerID:    id,
		BaseURL:     baseURL,
		Client:      &http.Client{},
		MetaTimeout: DefaultMetaTimeout,
		RunTimeout:  DefaultRunTimeout,
		Retry:       DefaultRetryPolicy,
	}
}

// CallError is a failed worker call with enough structure for the retry
// layer to classify it. Status 0 means the request never produced an HTTP
// response (transport failure or timeout).
type CallError struct {
	Worker  string
	Status  int
	Timeout bool
	Msg     string // worker-supplied error body, when present
	Err     error
}

func (e *CallError) Error() string {
	switch {
	case e.Timeout:
		return fmt.Sprintf("federation: worker %s: %s", e.Worker, e.Msg)
	case e.Status != 0:
		return fmt.Sprintf("federation: worker %s: HTTP %d: %s", e.Worker, e.Status, e.Msg)
	default:
		return fmt.Sprintf("federation: worker %s: %v", e.Worker, e.Err)
	}
}

func (e *CallError) Unwrap() error { return e.Err }

// Temporary reports whether the call is worth replaying: transport
// failures, timeouts, 429s and 5xx responses are; 4xx worker verdicts
// (bad request, disclosure control, unknown step) are final.
func (e *CallError) Temporary() bool {
	return e.Status == 0 || e.Timeout || e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// ID implements WorkerClient.
func (c *HTTPWorkerClient) ID() string { return c.WorkerID }

func (c *HTTPWorkerClient) metaTimeout() time.Duration {
	if c.MetaTimeout > 0 {
		return c.MetaTimeout
	}
	return DefaultMetaTimeout
}

func (c *HTTPWorkerClient) runTimeout() time.Duration {
	if c.RunTimeout > 0 {
		return c.RunTimeout
	}
	return DefaultRunTimeout
}

func (c *HTTPWorkerClient) httpClient() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return http.DefaultClient
}

// do issues one request with a deadline and decodes the response,
// surfacing worker-side error bodies as `worker <id>: HTTP <code>: <msg>`
// instead of opaque transport errors. Cancelling parent aborts the request,
// which the worker server sees as its request context dying. An out of type
// **engine.Table decodes a table stream straight off the body; any other
// out is decoded from JSON.
func (c *HTTPWorkerClient) do(parent context.Context, method, path string, timeout time.Duration, trace *obs.TraceRef, in, out any) error {
	var body io.Reader
	var sent int
	if in != nil {
		enc, err := json.Marshal(in)
		if err != nil {
			return err
		}
		sent = len(enc)
		body = bytes.NewReader(enc)
	}
	ctx, cancel := context.WithTimeout(parent, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace != nil {
		req.Header.Set(obs.TraceHeader, trace.String())
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		if ctx.Err() == context.DeadlineExceeded {
			return &CallError{Worker: c.WorkerID, Timeout: true,
				Msg: fmt.Sprintf("%s timed out after %s", path, timeout), Err: err}
		}
		return &CallError{Worker: c.WorkerID, Err: err}
	}
	defer resp.Body.Close()
	fedBytesSent.Add(int64(sent))
	rb := &countingReader{r: resp.Body}
	defer func() { fedBytesRecv.Add(rb.n) }()
	if tp, ok := out.(**engine.Table); ok && resp.StatusCode == http.StatusOK {
		if ct := resp.Header.Get("Content-Type"); ct != TableContentType {
			return &CallError{Worker: c.WorkerID, Status: resp.StatusCode,
				Msg: fmt.Sprintf("%s answered %q, not %s: the worker speaks an older %s format", path, ct, TableContentType, path)}
		}
		if *tp, err = engine.ReadTable(rb); err != nil {
			return &CallError{Worker: c.WorkerID, Err: fmt.Errorf("reading response: %w", err)}
		}
		io.Copy(io.Discard, rb) // reach EOF so the connection is reused; the table is already whole
		return nil
	}
	data, err := io.ReadAll(rb)
	if err != nil {
		return &CallError{Worker: c.WorkerID, Err: fmt.Errorf("reading response: %w", err)}
	}
	if resp.StatusCode != http.StatusOK {
		msg := truncate(string(data), 200)
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &CallError{Worker: c.WorkerID, Status: resp.StatusCode, Msg: msg}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// truncate caps s at n bytes without splitting a multi-byte UTF-8 rune
// (worker error bodies may carry non-ASCII dataset or column names).
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n] + "…"
}

// Datasets implements WorkerClient. Idempotent: retried under Retry.
func (c *HTTPWorkerClient) Datasets() ([]string, error) {
	info, err := c.DatasetInfo()
	if err != nil {
		return nil, err
	}
	return info.Datasets, nil
}

// DatasetInfo implements the master's versioned-client interface over the
// /datasets endpoint (the version fields are additive JSON). Idempotent:
// retried under Retry.
func (c *HTTPWorkerClient) DatasetInfo() (DatasetInfo, error) {
	var out DatasetInfo
	err := c.Retry.run(c.WorkerID, func() error {
		return c.do(context.Background(), http.MethodGet, "/datasets", c.metaTimeout(), nil, nil, &out)
	})
	if err != nil {
		return DatasetInfo{}, err
	}
	return out, nil
}

// DataStamp implements the versioned-client probe against GET /datastamp.
// A worker predating the endpoint returns an error, which the result cache
// treats as "bypass caching for this worker".
func (c *HTTPWorkerClient) DataStamp() (string, error) {
	var out struct {
		Stamp string `json:"stamp"`
	}
	err := c.Retry.run(c.WorkerID, func() error {
		return c.do(context.Background(), http.MethodGet, "/datastamp", c.metaTimeout(), nil, nil, &out)
	})
	if err != nil {
		return "", err
	}
	return out.Stamp, nil
}

// LocalRun implements WorkerClient. Replays are safe because workers
// dedupe /localrun by JobID, so transient failures are retried.
func (c *HTTPWorkerClient) LocalRun(req LocalRunRequest) (LocalRunResponse, error) {
	var resp LocalRunResponse
	err := c.Retry.run(c.WorkerID, func() error {
		return c.do(context.Background(), http.MethodPost, "/localrun", c.runTimeout(), req.Trace, req, &resp)
	})
	return resp, err
}

// CancelJob implements the master's optional job-canceller interface: POST
// /cancel aborts the named step on the worker. Returns whether the worker
// found a live job to cancel.
func (c *HTTPWorkerClient) CancelJob(jobID string) bool {
	var out struct {
		Cancelled bool `json:"cancelled"`
	}
	if err := c.do(context.Background(), http.MethodPost, "/cancel", c.metaTimeout(), nil, map[string]string{"job_id": jobID}, &out); err != nil {
		return false
	}
	return out.Cancelled
}

// Query implements WorkerClient.
func (c *HTTPWorkerClient) Query(sql string) (*engine.Table, error) {
	return c.QueryCtx(context.Background(), sql)
}

// QueryCtx implements the master's optional context-aware query interface:
// cancelling the context tears down the HTTP request, which cancels the
// worker-side engine execution through the server's request context.
func (c *HTTPWorkerClient) QueryCtx(ctx context.Context, sql string) (*engine.Table, error) {
	var t *engine.Table
	err := c.do(ctx, http.MethodPost, "/query", c.runTimeout(), nil, map[string]string{"sql": sql}, &t)
	return t, err
}
