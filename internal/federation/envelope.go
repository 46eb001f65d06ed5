package federation

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

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

// stepEncoder appends an envelope's fields to buf.
type stepEncoder struct{ buf []byte }

func newStepEncoder(buf []byte, kind byte, size int) *stepEncoder {
	return &stepEncoder{append(append(slices.Grow(buf, size), stepMagic...), kind)}
}

func (e *stepEncoder) uint(x uint64) { e.buf = binary.AppendUvarint(e.buf, x) }
func (e *stepEncoder) int(x int64)   { e.buf = binary.AppendVarint(e.buf, x) }
func (e *stepEncoder) u64(x uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, x) }
func (e *stepEncoder) str(s string)  { e.uint(uint64(len(s))); e.buf = append(e.buf, s...) }
func (e *stepEncoder) flag(b bool)   { e.count(0, !b) }

// count writes a length as n+1, or 0 for nil.
func (e *stepEncoder) count(n int, isNil bool) {
	if isNil {
		n = -1
	}
	e.uint(uint64(n + 1))
}

func (e *stepEncoder) time(t time.Time) {
	n := int64(math.MinInt64)
	if !t.IsZero() {
		n = t.UnixNano()
	}
	e.u64(uint64(n))
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
	putList(e, t.Shape, func(dim int) { e.int(int64(dim)) })
	putList(e, t.Data, func(x float64) { e.u64(math.Float64bits(x)) })
	e.int(int64(t.Op))
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

// stepDecoder reads an envelope. The first failure sticks and later reads
// yield zero values, so callers check err once, at the end.
type stepDecoder struct {
	buf []byte
	off int
	err error
	// text, once set, is one copy of buf from textAt on: later strings are
	// slices of it instead of copies of their own.
	text   string
	textAt int
}

func newStepDecoder(body []byte, kind byte) *stepDecoder {
	d := &stepDecoder{buf: body}
	if b := d.next(uint64(len(stepMagic) + 1)); b == nil || string(b[:len(stepMagic)]) != stepMagic || b[len(stepMagic)] != kind {
		d.err = fmt.Errorf("federation: not a step envelope (want %q kind %q)", stepMagic, kind)
	}
	return d
}

// finish fails unless the body decoded cleanly and completely.
func (d *stepDecoder) finish() error {
	if d.err == nil && d.off != len(d.buf) {
		d.err = fmt.Errorf("federation: %d trailing bytes after step envelope", len(d.buf)-d.off)
	}
	return d.err
}

func (d *stepDecoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("federation: corrupt step envelope at byte %d of %d", d.off, len(d.buf))
	}
}

// next returns the next n bytes, or nil once the body runs short.
func (d *stepDecoder) next(n uint64) []byte {
	if d.err != nil || n > uint64(len(d.buf)-d.off) {
		d.fail()
		return nil
	}
	d.off += int(n)
	return d.buf[d.off-int(n) : d.off : d.off]
}

func (d *stepDecoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return x
}

// int undoes binary.AppendVarint's zigzag encoding.
func (d *stepDecoder) int() int64 { x := d.uint(); return int64(x>>1) ^ -int64(x&1) }

func (d *stepDecoder) u64() uint64 {
	if b := d.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *stepDecoder) str() string {
	b := d.next(d.uint())
	if d.text == "" || b == nil {
		return string(b)
	}
	end := d.off - d.textAt
	return d.text[end-len(b) : end]
}

// count reads a length written by stepEncoder.count and fails unless at
// least size bytes per element are left: the bound every allocation sized
// by the body passes through.
func (d *stepDecoder) count(size int) (n int, isNil bool) {
	x := d.uint()
	if x == 0 {
		return 0, true
	}
	if x-1 > uint64((len(d.buf)-d.off)/size) {
		d.fail()
		return 0, true
	}
	return int(x - 1), false
}

func (d *stepDecoder) flag() bool { _, isNil := d.count(1); return !isNil }

func (d *stepDecoder) time() time.Time {
	if n := int64(d.u64()); n != math.MinInt64 && d.err == nil {
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
		Shape: getList(d, 1, func() int { return int(d.int()) }),
		Data:  getList(d, 8, func() float64 { return math.Float64frombits(d.u64()) }),
		Op:    smpc.Op(d.int()),
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
	e.buf = append(e.buf, r.Kwargs.RawMessage...)
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
	return e.buf
}

// decodeStep replaces r with the request body holds; Kwargs alias body.
func (r *LocalRunRequest) decodeStep(body []byte) error {
	d := newStepDecoder(body, kindRequest)
	*r = LocalRunRequest{JobID: d.str(), Func: d.str(), DataQuery: d.str()}
	if n, isNil := d.count(1); !isNil {
		r.Kwargs.RawMessage = d.next(uint64(n))
	}
	r.Secure, r.Tenant, r.Datasets = d.flag(), d.str(), getList(d, 1, d.str)
	if d.flag() {
		r.Trace = &obs.TraceRef{TraceID: d.str(), SpanID: d.str()}
	}
	if d.flag() {
		r.Session = &SessionRef{ID: d.str(), Open: d.flag()}
	}
	r.Release = getList(d, 1, d.str)
	return d.finish()
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
	e.int(int64(r.Rows))
	putList(e, r.Spans, e.span)
	return e.buf
}

// decodeStep replaces r with the response body holds.
func (r *LocalRunResponse) decodeStep(body []byte) error {
	d := newStepDecoder(body, kindResponse)
	// A transfer entry takes at least a key, a shape count, a data count
	// and an op.
	*r = LocalRunResponse{WorkerID: d.str(), Transfer: getMap(d, 4, d.tensor), Rows: int(d.int())}
	// A response's spans live exactly as long as each other, in the trace
	// store: one copy of their bytes serves all their strings. A span takes
	// at least four string lengths, two times, an attribute count and an
	// error length.
	d.text, d.textAt = string(d.buf[d.off:]), d.off
	r.Spans = getList(d, 4+16+1+1, d.span)
	return d.finish()
}
