package federation

import (
	"fmt"
	"math"
	"slices"
	"time"

	"mip/internal/engine/frame"
	"mip/internal/obs"
	"mip/internal/smpc"
)

// The step envelope is the body of POST /localrun in both directions: the
// magic "MIPS", version 1, a kind byte ('Q' request, 'R' response), then
// the fields in declaration order. A string is a uvarint length and its
// bytes; a slice or map is a uvarint count n+1 and its elements, 0 standing
// for nil; a float is its IEEE-754 bits and a time its Unix nanoseconds
// (MinInt64 for the zero time), 8 bytes little-endian each; an integer is a
// zigzag varint; a flag, or a pointer's presence, is a count of 0 or 1.
// Kwargs are their JSON bytes. The decoder bounds every count by the bytes
// left, so a forged count allocates nothing, and rejects short and trailing
// bytes: a cut body is an error, never a shorter answer.

// StepContentType is the media type of a /localrun request and answer.
const StepContentType = "application/vnd.mip.step"

const (
	stepMagic                 = "MIPS\x01" // the magic and version 1
	kindRequest, kindResponse = 'Q', 'R'
)

// stepEncoder appends an envelope's fields to Buf.
type stepEncoder struct{ frame.Encoder }

func newStepEncoder(buf []byte, kind byte, size int) *stepEncoder {
	return &stepEncoder{frame.Encoder{Buf: append(append(slices.Grow(buf, size), stepMagic...), kind)}}
}

func (e *stepEncoder) str(s string) { e.Uvarint(uint64(len(s))); e.Buf = append(e.Buf, s...) }
func (e *stepEncoder) flag(b bool)  { e.count(0, !b) }

// count writes a length as n+1, or 0 for nil.
func (e *stepEncoder) count(n int, isNil bool) {
	if isNil {
		n = -1
	}
	e.Uvarint(uint64(n + 1))
}

func (e *stepEncoder) time(t time.Time) {
	n := int64(math.MinInt64)
	if !t.IsZero() {
		n = t.UnixNano()
	}
	e.U64(uint64(n))
}

func putList[T any](e *stepEncoder, xs []T, put func(T)) {
	e.count(len(xs), xs == nil)
	for _, x := range xs {
		put(x)
	}
}

func putMap[V any](e *stepEncoder, m map[string]V, put func(V)) {
	e.count(len(m), m == nil)
	for k, v := range m {
		e.str(k)
		put(v)
	}
}

func (e *stepEncoder) tensor(t Tensor) {
	putList(e, t.Shape, func(dim int) { e.Varint(int64(dim)) })
	putList(e, t.Data, func(x float64) { e.U64(math.Float64bits(x)) })
	e.Varint(int64(t.Op))
}

func (e *stepEncoder) span(s obs.SpanData) {
	e.str(s.TraceID)
	e.str(s.SpanID)
	e.str(s.Parent)
	e.str(s.Name)
	e.time(s.Start)
	e.time(s.End)
	putMap(e, s.Attrs, e.str)
	e.str(s.Err)
}

// stepDecoder reads an envelope; the first failure sticks, so callers
// check the error once, at the end.
type stepDecoder struct {
	frame.Decoder
	// text, once set, is one copy of the body from textAt on: later strings
	// are slices of it instead of copies of their own.
	text   string
	textAt int
}

func newStepDecoder(body []byte, kind byte) *stepDecoder {
	d := &stepDecoder{Decoder: frame.NewDecoder(body, "step envelope")}
	if b := d.Next(uint64(len(stepMagic) + 1)); b == nil || string(b[:len(stepMagic)]) != stepMagic || b[len(stepMagic)] != kind {
		d.Fail(fmt.Errorf("federation: not a step envelope (want %q kind %q)", stepMagic, kind))
	}
	return d
}

func (d *stepDecoder) str() string {
	b := d.Next(d.Uvarint())
	if d.text == "" || b == nil {
		return string(b)
	}
	end := d.Offset() - d.textAt
	return d.text[end-len(b) : end]
}

// count reads a length written by stepEncoder.count, bounded by the bytes
// left at size bytes per element.
func (d *stepDecoder) count(size int) (n int, isNil bool) {
	x := d.Uvarint()
	if x == 0 {
		return 0, true
	}
	return d.Bound(x-1, size), false
}

func (d *stepDecoder) flag() bool { _, isNil := d.count(1); return !isNil }

func (d *stepDecoder) time() time.Time {
	if n := int64(d.U64()); n != math.MinInt64 && d.Err() == nil {
		return time.Unix(0, n)
	}
	return time.Time{}
}

// getList reads what putList wrote; an element takes at least size bytes.
func getList[T any](d *stepDecoder, size int, get func() T) []T {
	n, isNil := d.count(size)
	if isNil {
		return nil
	}
	xs := make([]T, n)
	for i := range xs {
		xs[i] = get()
	}
	return xs
}

// getMap reads what putMap wrote; an entry takes at least size bytes.
func getMap[V any](d *stepDecoder, size int, get func() V) map[string]V {
	n, isNil := d.count(size)
	if isNil {
		return nil
	}
	m := make(map[string]V, n)
	for range n {
		k := d.str()
		m[k] = get()
	}
	return m
}

func (d *stepDecoder) tensor() Tensor {
	return Tensor{
		Shape: getList(d, 1, func() int { return int(d.Varint()) }),
		Data:  getList(d, 8, func() float64 { return math.Float64frombits(d.U64()) }),
		Op:    smpc.Op(d.Varint()),
	}
}

func (d *stepDecoder) span() obs.SpanData {
	return obs.SpanData{TraceID: d.str(), SpanID: d.str(), Parent: d.str(), Name: d.str(),
		Start: d.time(), End: d.time(), Attrs: getMap(d, 2, d.str), Err: d.str()}
}

// appendStep appends the request's envelope to buf.
func (r *LocalRunRequest) appendStep(buf []byte) []byte {
	e := newStepEncoder(buf, kindRequest, 64+len(r.JobID)+len(r.Func)+len(r.DataQuery)+len(r.Kwargs.RawMessage))
	e.str(r.JobID)
	e.str(r.Func)
	e.str(r.DataQuery)
	e.count(len(r.Kwargs.RawMessage), r.Kwargs.RawMessage == nil)
	e.Buf = append(e.Buf, r.Kwargs.RawMessage...)
	e.flag(r.Secure)
	e.str(r.Tenant)
	putList(e, r.Datasets, e.str)
	if e.flag(r.Trace != nil); r.Trace != nil {
		e.str(r.Trace.TraceID)
		e.str(r.Trace.SpanID)
	}
	if e.flag(r.Session != nil); r.Session != nil {
		e.str(r.Session.ID)
		e.flag(r.Session.Open)
	}
	putList(e, r.Release, e.str)
	return e.Buf
}

// decodeStep replaces r with the request body holds; Kwargs alias body.
func (r *LocalRunRequest) decodeStep(body []byte) error {
	d := newStepDecoder(body, kindRequest)
	*r = LocalRunRequest{JobID: d.str(), Func: d.str(), DataQuery: d.str()}
	if n, isNil := d.count(1); !isNil {
		r.Kwargs.RawMessage = d.Next(uint64(n))
	}
	r.Secure, r.Tenant, r.Datasets = d.flag(), d.str(), getList(d, 1, d.str)
	if d.flag() {
		r.Trace = &obs.TraceRef{TraceID: d.str(), SpanID: d.str()}
	}
	if d.flag() {
		r.Session = &SessionRef{ID: d.str(), Open: d.flag()}
	}
	r.Release = getList(d, 1, d.str)
	return d.Finish()
}

// appendStep appends the response's envelope to buf.
func (r *LocalRunResponse) appendStep(buf []byte) []byte {
	size := 64 + 160*len(r.Spans) // a typical span, rounded up
	for k, t := range r.Transfer {
		size += 16 + len(k) + 2*len(t.Shape) + 8*len(t.Data)
	}
	e := newStepEncoder(buf, kindResponse, size)
	e.str(r.WorkerID)
	putMap(e, r.Transfer, e.tensor)
	e.Varint(int64(r.Rows))
	putList(e, r.Spans, e.span)
	return e.Buf
}

// decodeStep replaces r with the response body holds.
func (r *LocalRunResponse) decodeStep(body []byte) error {
	d := newStepDecoder(body, kindResponse)
	// A transfer entry takes at least a key, a shape count, a data count
	// and an op.
	*r = LocalRunResponse{WorkerID: d.str(), Transfer: getMap(d, 4, d.tensor), Rows: int(d.Varint())}
	// A response's spans live exactly as long as each other, in the trace
	// store: one copy of their bytes serves all their strings. A span takes
	// at least four string lengths, two times, an attribute count and an
	// error length.
	d.text, d.textAt = string(d.Rest()), d.Offset()
	r.Spans = getList(d, 4+16+1+1, d.span)
	return d.Finish()
}
