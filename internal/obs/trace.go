package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceRef is the portable trace context carried across process
// boundaries, as a field of the federation step envelope.
type TraceRef struct {
	TraceID, SpanID string
}

// SpanData is one finished (or in-flight) span. Spans are keyed into a
// trace by TraceID — for experiments this is the experiment UUID, so the
// trace is retrievable as GET /experiments/{uuid}/trace.
type SpanData struct {
	TraceID string            `json:"trace_id"`
	SpanID  string            `json:"span_id"`
	Parent  string            `json:"parent_id,omitempty"`
	Name    string            `json:"name"`
	Start   time.Time         `json:"start"`
	End     time.Time         `json:"end"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Err     string            `json:"error,omitempty"`
}

// DurationMS returns the span length in milliseconds (0 while in flight).
func (d SpanData) DurationMS() float64 {
	if d.End.IsZero() {
		return 0
	}
	return float64(d.End.Sub(d.Start)) / float64(time.Millisecond)
}

// Span is a live span handle. All methods are nil-safe so call sites can
// instrument unconditionally and pay nothing when tracing is off (the
// store returns nil spans for an empty trace id).
type Span struct {
	mu    sync.Mutex
	data  SpanData
	store *TraceStore
	done  bool
}

// ID returns the span id ("" for nil spans).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.data.SpanID
}

// Ref returns the span's trace context for propagation, or nil.
func (s *Span) Ref() *TraceRef {
	if s == nil {
		return nil
	}
	return &TraceRef{TraceID: s.data.TraceID, SpanID: s.data.SpanID}
}

// StartChild opens a child span in the same store (nil-safe: a nil parent
// yields a nil child, so disabled tracing costs nothing down the tree).
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.store.StartSpan(s.data.TraceID, s.data.SpanID, name)
}

// SetAttr records a key/value attribute on the span.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]string, 4)
	}
	s.data.Attrs[k] = v
}

// SetError records an error on the span (nil errors are ignored).
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.data.Err = err.Error()
	s.mu.Unlock()
}

// End stamps the span's end time and publishes it to the store. End is
// idempotent; only the first call records.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.data.End = time.Now()
	data := s.snapshotLocked()
	s.mu.Unlock()
	s.store.add(data)
}

// Data returns a snapshot of the span (used by workers to ship their spans
// back in LocalRunResponse envelopes).
func (s *Span) Data() SpanData {
	if s == nil {
		return SpanData{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Span) snapshotLocked() SpanData {
	d := s.data
	if len(s.data.Attrs) > 0 {
		d.Attrs = make(map[string]string, len(s.data.Attrs))
		for k, v := range s.data.Attrs {
			d.Attrs[k] = v
		}
	}
	return d
}

// procID distinguishes span ids minted by different processes (master vs.
// remote workers) so imported spans never collide.
var procID = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000"
	}
	return hex.EncodeToString(b[:])
}()

var spanSeq atomic.Uint64

func newSpanID() string {
	return fmt.Sprintf("%s-%06d", procID, spanSeq.Add(1))
}

// NewSpanID mints a process-unique span id. Exposed for components that
// synthesize SpanData directly rather than through StartSpan — the
// federation worker uses it to turn engine plan nodes into operator spans.
func NewSpanID() string { return newSpanID() }

type traceRec struct {
	spans []SpanData
	ids   map[string]bool
}

// TraceStore keeps the spans of the most recent traces, bounded FIFO by
// trace id.
type TraceStore struct {
	mu     sync.Mutex
	traces map[string]*traceRec
	order  []string
	max    int
}

// NewTraceStore returns a store keeping at most max traces (default 256).
func NewTraceStore(max int) *TraceStore {
	if max <= 0 {
		max = 256
	}
	return &TraceStore{traces: make(map[string]*traceRec), max: max}
}

// DefaultTraces is the process-wide trace store.
var DefaultTraces = NewTraceStore(256)

// StartSpan opens a span under the given trace and parent span id. An
// empty traceID disables tracing for the whole call tree: the returned nil
// span is safe to use and records nothing.
func (ts *TraceStore) StartSpan(traceID, parentID, name string) *Span {
	if ts == nil || traceID == "" {
		return nil
	}
	return &Span{
		store: ts,
		data: SpanData{
			TraceID: traceID,
			SpanID:  newSpanID(),
			Parent:  parentID,
			Name:    name,
			Start:   time.Now(),
		},
	}
}

// StartSpanRef opens a child span of a propagated TraceRef (nil ref
// disables tracing).
func (ts *TraceStore) StartSpanRef(ref *TraceRef, name string) *Span {
	if ref == nil {
		return nil
	}
	return ts.StartSpan(ref.TraceID, ref.SpanID, name)
}

func (ts *TraceStore) add(d SpanData) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	rec := ts.traces[d.TraceID]
	if rec == nil {
		rec = &traceRec{ids: make(map[string]bool)}
		ts.traces[d.TraceID] = rec
		ts.order = append(ts.order, d.TraceID)
		for len(ts.order) > ts.max {
			delete(ts.traces, ts.order[0])
			ts.order = ts.order[1:]
		}
	}
	if rec.ids[d.SpanID] {
		return // already imported (in-process worker returning its spans)
	}
	rec.ids[d.SpanID] = true
	rec.spans = append(rec.spans, d)
}

// Import merges finished spans shipped from another process (worker
// responses). Duplicate span ids are dropped, so the in-process transport
// — where worker spans land in the same store twice — stays correct.
func (ts *TraceStore) Import(spans []SpanData) {
	if ts == nil {
		return
	}
	for _, d := range spans {
		if d.TraceID == "" || d.SpanID == "" {
			continue
		}
		ts.add(d)
	}
}

// Spans returns the recorded spans of a trace, sorted by start time.
func (ts *TraceStore) Spans(traceID string) []SpanData {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	rec := ts.traces[traceID]
	if rec == nil {
		return nil
	}
	out := append([]SpanData(nil), rec.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// SpanNode is one node of the rendered trace tree.
type SpanNode struct {
	SpanData
	DurMS    float64     `json:"duration_ms"`
	Children []*SpanNode `json:"children,omitempty"`
}

// Tree assembles the trace's spans into parent/child trees. Spans whose
// parent is missing (or empty) become roots. Siblings sort by start time.
func (ts *TraceStore) Tree(traceID string) []*SpanNode {
	spans := ts.Spans(traceID)
	if len(spans) == 0 {
		return nil
	}
	nodes := make(map[string]*SpanNode, len(spans))
	for _, d := range spans {
		nodes[d.SpanID] = &SpanNode{SpanData: d, DurMS: d.DurationMS()}
	}
	var roots []*SpanNode
	for _, d := range spans { // spans is start-sorted: children append in order
		n := nodes[d.SpanID]
		if p := nodes[d.Parent]; d.Parent != "" && p != nil && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}
