package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mip/internal/engine"
	"mip/internal/federation"
)

// The traced pass records spans from outside the program under test: around
// the load generator's own calls, around every master→worker call (a
// WorkerClient decorator), around every HTTP round trip (a RoundTripper) and
// around every server-side handler (http.Handler middleware). Nothing under
// internal/ is touched. A nil *recorder means the untraced pass: no decorator
// is installed at all, so the end-to-end numbers are those of the bare system.

// Layers a span can belong to.
const (
	layerLoadgen = "loadgen"
	layerAPI     = "api"
	layerQueue   = "queue"
	layerMaster  = "master"
	layerWire    = "wire"
	layerWorker  = "worker"
	layerSMPC    = "smpc"
)

// spanHeader carries the id of the client-side span an HTTP request belongs
// to, so the server-side handler span can name its parent.
const spanHeader = "X-Bench-Span"

// span is one timed interval. Start and End are nanoseconds since the
// recorder's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op,omitempty"` // load-generator operation id, when known
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Worker and Key describe master→worker calls: Key groups the calls of
	// one fan-out round (the step's job id, or the part SQL plus how often
	// this worker has seen it).
	Worker string `json:"worker,omitempty"`
	Key    string `json:"key,omitempty"`
	// Trace is the experiment uuid a span belongs to, where one is known.
	Trace string `json:"trace,omitempty"`
	// ReqBytes and RespBytes are HTTP body sizes (wire spans only).
	ReqBytes  int64 `json:"req_bytes,omitempty"`
	RespBytes int64 `json:"resp_bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

type recorder struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// at places a wall-clock time the program recorded on the recorder's axis.
func (r *recorder) at(ts time.Time) int64 { return int64(ts.Sub(r.epoch)) }

func (r *recorder) newID() int64 { return r.nextID.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset drops everything recorded so far (set-up and warm-up spans).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// maxDumpSpans caps the trace file (replay_rw records about half a million
// spans in ten seconds); the metrics are computed from all of them.
const maxDumpSpans = 100000

// write dumps the spans as JSON, ordered by start time.
func (r *recorder) write(path string) error {
	spans := r.snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if len(spans) > maxDumpSpans {
		spans = spans[:maxDumpSpans]
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfNanos is a span's self time: its duration minus the part of that
// interval its child spans cover (children are clipped to the parent and
// overlapping children are counted once).
func selfNanos(s span, children []span) int64 {
	return s.dur() - unionNanos(children, s.Start, s.End)
}

// uncovered returns the intervals of s that none of its children covers: the
// same time selfNanos adds up, kept as intervals so that the self time of
// spans that ran side by side can be united. children is sorted in place.
func uncovered(s span, children []span) []span {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var out []span
	at := s.Start
	for _, c := range children {
		if c.Start > at && at < s.End {
			out = append(out, span{Start: at, End: min(c.Start, s.End)})
		}
		at = max(at, c.End)
	}
	if at < s.End {
		out = append(out, span{Start: at, End: s.End})
	}
	return out
}

// unionNanos is the total length of the union of the spans' intervals,
// clipped to [lo, hi].
func unionNanos(spans []span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := s.Start, s.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// tracedWorker decorates the HTTP worker client: one master-layer span per
// logical call, and — by handing every call its own copy of the client with
// a span-aware transport — exact parent links for the wire spans below it.
// It forwards every optional interface the master probes for (context-aware
// queries, job cancellation, dataset versions).
type tracedWorker struct {
	inner *federation.HTTPWorkerClient
	rec   *recorder

	mu   sync.Mutex
	seen map[string]int // part SQL → calls so far (round ordinal)
}

func newTracedWorker(inner *federation.HTTPWorkerClient, rec *recorder) *tracedWorker {
	return &tracedWorker{inner: inner, rec: rec, seen: make(map[string]int)}
}

func (t *tracedWorker) ID() string { return t.inner.ID() }

// call runs fn against a per-call client whose transport parents its wire
// spans under a fresh master-layer span.
func (t *tracedWorker) call(name, key, trace string, fn func(c *federation.HTTPWorkerClient)) {
	id := t.rec.newID()
	c := *t.inner
	c.Client = &http.Client{Transport: &tracedTransport{
		base: t.inner.Client.Transport, rec: t.rec, parent: id, worker: t.inner.WorkerID,
	}}
	start := t.rec.now()
	fn(&c)
	t.rec.add(span{ID: id, Layer: layerMaster, Name: name, Worker: t.inner.WorkerID,
		Key: key, Trace: trace, Start: start, End: t.rec.now()})
}

func (t *tracedWorker) Datasets() (ds []string, err error) {
	t.call("datasets", "", "", func(c *federation.HTTPWorkerClient) { ds, err = c.Datasets() })
	return
}

func (t *tracedWorker) DatasetInfo() (info federation.DatasetInfo, err error) {
	t.call("datasetinfo", "", "", func(c *federation.HTTPWorkerClient) { info, err = c.DatasetInfo() })
	return
}

func (t *tracedWorker) DataStamp() (stamp string, err error) {
	t.call("datastamp", "", "", func(c *federation.HTTPWorkerClient) { stamp, err = c.DataStamp() })
	return
}

func (t *tracedWorker) LocalRun(req federation.LocalRunRequest) (resp federation.LocalRunResponse, err error) {
	trace := ""
	if req.Trace != nil {
		trace = req.Trace.TraceID
	}
	t.call("localrun", req.JobID, trace, func(c *federation.HTTPWorkerClient) { resp, err = c.LocalRun(req) })
	return
}

func (t *tracedWorker) CancelJob(jobID string) bool { return t.inner.CancelJob(jobID) }

func (t *tracedWorker) Query(sql string) (*engine.Table, error) {
	return t.QueryCtx(context.Background(), sql)
}

func (t *tracedWorker) QueryCtx(ctx context.Context, sql string) (tab *engine.Table, err error) {
	t.mu.Lock()
	n := t.seen[sql]
	t.seen[sql] = n + 1
	t.mu.Unlock()
	t.call("query", sql+"#"+strconv.Itoa(n), "", func(c *federation.HTTPWorkerClient) {
		tab, err = c.QueryCtx(ctx, sql)
	})
	return
}

// tracedTransport records one wire span per HTTP attempt, from the request
// leaving until the response body is fully read, with the body sizes.
type tracedTransport struct {
	base   http.RoundTripper
	rec    *recorder
	parent int64
	worker string
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.rec.newID()
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	s := span{ID: id, Parent: t.parent, Layer: layerWire, Name: req.URL.Path,
		Worker: t.worker, Start: t.rec.now()}
	if req.ContentLength > 0 {
		s.ReqBytes = req.ContentLength
	}
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		s.End = t.rec.now()
		t.rec.add(s)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		s.RespBytes = n
		s.End = t.rec.now()
		t.rec.add(s)
	}}
	return resp, nil
}

// countingBody counts the bytes read and reports once, at EOF or Close.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err != nil {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *countingBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.ReadCloser.Close()
}

// traceHandler wraps a server-side handler: one span per request in the
// given layer, parented under the client span named in the request header.
func traceHandler(rec *recorder, layer, worker string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		start := rec.now()
		next.ServeHTTP(w, r)
		rec.add(span{ID: rec.newID(), Parent: parent, Layer: layer, Worker: worker,
			Name: r.Method + " " + r.URL.Path, Start: start, End: rec.now()})
	})
}
