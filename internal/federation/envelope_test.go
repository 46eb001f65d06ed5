package federation

// Tests for the /localrun step envelope: bit-identical round trips of edge
// values, every-byte truncation, a decoder that never panics or allocates
// past a linear bound, and both ends refusing a body in another format.

import (
	"encoding/json"
	"errors"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mip/internal/obs"
	"mip/internal/smpc"
)

// stepRequests covers every field of a request: full, absent and empty.
func stepRequests() []LocalRunRequest {
	return []LocalRunRequest{
		{
			JobID: "exp-ab12-000001/3", Func: "desc_summary", DataQuery: "SELECT ab42 FROM data WHERE dataset IN ('edsd')",
			Kwargs: Kwargs{json.RawMessage(`{"vars":["ab42"],"note":"βeta=ü"}`)}, Secure: true,
			Tenant: "alice", Datasets: []string{"edsd", "ppmi"},
			Trace:   &obs.TraceRef{TraceID: "exp-ab12-000001", SpanID: "c0ffee01-000042"},
			Session: &SessionRef{ID: "exp-ab12-1", Open: true},
			Release: []string{"exp-ab12-0", ""},
		},
		{JobID: "j", Func: "f"},
		{Kwargs: Kwargs{json.RawMessage{}}, Datasets: []string{}, Release: []string{},
			Trace: &obs.TraceRef{}, Session: &SessionRef{}},
	}
}

// stepResponses covers every tensor and span shape a response carries.
func stepResponses() []LocalRunResponse {
	negz := math.Copysign(0, -1)
	start := time.Now()
	return []LocalRunResponse{
		{
			WorkerID: "hospital-ü",
			Transfer: Transfer{
				"negz":    Scalar(negz),
				"edges":   Vector([]float64{5e-324, -5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, -math.MaxFloat64, negz}),
				"nanbits": Vector([]float64{math.Float64frombits(0x7ff8000000000001), math.Inf(1), math.Inf(-1)}),
				"mat":     Matrix(2, 2, []float64{1, -2.25, 3e-300, 4}),
				"none":    Matrix(0, 4, nil),
				"empty":   {Shape: []int{}, Data: []float64{}},
				"shape":   {Shape: []int{3}, Op: smpc.OpMin}, // secure: shape and op only
				"mins":    Vector([]float64{-1, 2}).WithOp(smpc.OpMin),
				"maxs":    Vector([]float64{1e12}).WithOp(smpc.OpMax),
				"levels":  Vector([]float64{0, 1, 2}).WithOp(smpc.OpUnion),
			},
			Rows: 1 << 40,
			Spans: []obs.SpanData{
				{TraceID: "exp-1", SpanID: "a-000001", Parent: "m-000009", Name: "exec desc_summary",
					Start: start, End: start.Add(1234567 * time.Nanosecond),
					Attrs: map[string]string{"worker": "hospital-ü", "sql": "x = 'a=b'", "": "", "smpc_import_ms": "0.125"}},
				{TraceID: "exp-1", SpanID: "a-000002", Parent: "a-000001", Name: "engine query",
					Start: time.Unix(0, 0), End: time.Unix(0, -1), Attrs: map[string]string{}, Err: "boom: ü"},
				{TraceID: "exp-1", SpanID: "a-000003", Parent: "a-000002", Name: "op scan data"},
				{TraceID: "exp-2", SpanID: "a-000003", Start: time.Unix(-62135596800, 0)},
			},
		},
		{WorkerID: "w", Transfer: Transfer{}, Rows: -1, Spans: []obs.SpanData{}},
		{},
	}
}

// sameResponse fails unless b is a bit for bit: float bits, nil against
// empty, span times under time.Equal.
func sameResponse(t *testing.T, label string, a, b LocalRunResponse) {
	t.Helper()
	if a.WorkerID != b.WorkerID || a.Rows != b.Rows || (a.Transfer == nil) != (b.Transfer == nil) ||
		len(a.Transfer) != len(b.Transfer) || (a.Spans == nil) != (b.Spans == nil) || len(a.Spans) != len(b.Spans) {
		t.Fatalf("%s: %+v became %+v", label, a, b)
	}
	for k, x := range a.Transfer {
		y, ok := b.Transfer[k]
		if !ok || x.Op != y.Op || (x.Shape == nil) != (y.Shape == nil) || !reflect.DeepEqual(x.Shape, y.Shape) ||
			(x.Data == nil) != (y.Data == nil) || len(x.Data) != len(y.Data) {
			t.Fatalf("%s: tensor %q: %+v became %+v", label, k, x, y)
		}
		for i := range x.Data {
			if math.Float64bits(x.Data[i]) != math.Float64bits(y.Data[i]) {
				t.Fatalf("%s: %q[%d]: %v became %v", label, k, i, x.Data[i], y.Data[i])
			}
		}
	}
	for i, x := range a.Spans {
		y := b.Spans[i]
		if x.TraceID != y.TraceID || x.SpanID != y.SpanID || x.Parent != y.Parent || x.Name != y.Name || x.Err != y.Err ||
			!x.Start.Equal(y.Start) || !x.End.Equal(y.End) || (x.Attrs == nil) != (y.Attrs == nil) || !maps.Equal(x.Attrs, y.Attrs) {
			t.Fatalf("%s: span %d: %+v became %+v", label, i, x, y)
		}
	}
}

func TestStepEnvelopeRoundTrip(t *testing.T) {
	for i, req := range stepRequests() {
		var back LocalRunRequest
		if err := back.decodeStep(req.appendStep(nil)); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !reflect.DeepEqual(req, back) {
			t.Fatalf("request %d: %+v became %+v", i, req, back)
		}
	}
	for i, resp := range stepResponses() {
		var back LocalRunResponse
		if err := back.decodeStep(resp.appendStep(nil)); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		sameResponse(t, "response", resp, back)
	}
	// A request is not a response, and the reverse.
	var resp LocalRunResponse
	if err := resp.decodeStep(stepRequests()[0].appendStep(nil)); err == nil || !strings.Contains(err.Error(), "not a step envelope") {
		t.Fatalf("request decoded as a response: %v", err)
	}
}

// TestStepEnvelopeTruncation: an envelope cut at any byte, or followed by
// one, is an error, never a shorter request or answer.
func TestStepEnvelopeTruncation(t *testing.T) {
	req := stepRequests()[0].appendStep(nil)
	resp := stepResponses()[0].appendStep(nil)
	for cut := 0; cut < len(req); cut++ {
		var back LocalRunRequest
		if back.decodeStep(req[:cut]) == nil {
			t.Fatalf("request cut at %d of %d decoded as %+v", cut, len(req), back)
		}
	}
	for cut := 0; cut < len(resp); cut++ {
		var back LocalRunResponse
		if back.decodeStep(resp[:cut]) == nil {
			t.Fatalf("response cut at %d of %d decoded as %+v", cut, len(resp), back)
		}
	}
	var back LocalRunResponse
	if err := back.decodeStep(append(resp, 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte: %v", err)
	}

	// Over HTTP, a cut answer fails the call.
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", StepContentType)
		w.Write(resp[:len(resp)-1])
	}))
	defer stub.Close()
	c := &HTTPWorkerClient{WorkerID: "stub", BaseURL: stub.URL} // no retries
	if got, err := c.LocalRun(LocalRunRequest{JobID: "j"}); err == nil {
		t.Fatalf("a cut answer decoded as %+v", got)
	}
}

// Fuzzing allowance: decoding may allocate at most this much per input
// byte, plus a fixed slack.
const (
	fuzzAllocPerByte = 256
	fuzzAllocSlack   = 64 << 10
)

// FuzzStepEnvelope: the decoder never panics, allocates at most linearly in
// its input, and whatever it accepts re-encodes to the same values.
func FuzzStepEnvelope(f *testing.F) {
	for _, req := range stepRequests() {
		f.Add(req.appendStep(nil))
	}
	for _, resp := range stepResponses() {
		f.Add(resp.appendStep(nil))
	}
	f.Add([]byte(stepMagic + "R"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var req LocalRunRequest
		reqErr := req.decodeStep(data)
		var resp LocalRunResponse
		respErr := resp.decodeStep(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(fuzzAllocPerByte*len(data)+fuzzAllocSlack) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if reqErr == nil {
			var back LocalRunRequest
			if err := back.decodeStep(req.appendStep(nil)); err != nil || !reflect.DeepEqual(req, back) {
				t.Fatalf("request %+v re-decoded as %+v (%v)", req, back, err)
			}
		}
		if respErr == nil {
			var back LocalRunResponse
			if err := back.decodeStep(resp.appendStep(nil)); err != nil {
				t.Fatalf("re-decoding a decoded response: %v", err)
			}
			sameResponse(t, "fuzz", resp, back)
		}
	})
}

// TestLocalRunRefusesOtherFormats: the worker answers 415 to a body that
// is not a step envelope, and the client fails loudly, without retrying, on
// a 200 answer that is not one.
func TestLocalRunRefusesOtherFormats(t *testing.T) {
	srv := httptest.NewServer((&WorkerServer{Worker: NewWorker("h", newWorkerDB(t, "edsd", 20, 0))}).Handler())
	defer srv.Close()
	for _, body := range []struct{ ctype, data string }{
		{"application/json", `{"job_id":"j","func":"test_sums","data_query":"SELECT age FROM data"}`},
		{StepContentType, `{"job_id":"j"}`},
		{StepContentType, string(stepResponses()[1].appendStep(nil))},
	} {
		resp, err := http.Post(srv.URL+"/localrun", body.ctype, strings.NewReader(body.data))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("%s body %.20q: HTTP %d, want 415", body.ctype, body.data, resp.StatusCode)
		}
	}

	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"worker_id":"old","transfer":{"n":{"data":[1]}},"rows":1}`))
	}))
	defer old.Close()
	_, err := NewHTTPWorkerClient("old", old.URL).LocalRun(LocalRunRequest{JobID: "j", Func: "test_sums"})
	var ce *CallError
	if !errors.As(err, &ce) || ce.Temporary() || !strings.Contains(err.Error(), "older /localrun format") {
		t.Fatalf("err = %v, want a final CallError naming the older /localrun format", err)
	}
}

// BenchmarkStepEnvelope encodes and decodes a traced desc_summary-sized
// answer: a real step's spans and transfer.
func BenchmarkStepEnvelope(b *testing.B) {
	w := NewWorker("bench", newWorkerDB(b, "edsd", 500, 0))
	resp, err := w.LocalRun(LocalRunRequest{Func: "test_sums", DataQuery: "SELECT age, mmse FROM data WHERE age > 0",
		Trace: &obs.TraceRef{TraceID: "exp-bench-000001", SpanID: "m-1"}})
	if err != nil {
		b.Fatal(err)
	}
	body := resp.appendStep(nil)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			resp.appendStep(nil)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for range b.N {
			var back LocalRunResponse
			if err := back.decodeStep(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestOversizedBodyRefused: every worker endpoint reading a body refuses
// one past maxRequestBody with a final 413, while a body of exactly
// maxRequestBody bytes is read and judged on its content.
func TestOversizedBodyRefused(t *testing.T) {
	var calls atomic.Int64
	h := (&WorkerServer{Worker: NewWorker("h", newWorkerDB(t, "edsd", 20, 0)), AllowRawQuery: true}).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	pad := func(prefix, suffix string, n int) string {
		return prefix + strings.Repeat("a", n-len(prefix)-len(suffix)) + suffix
	}
	for _, c := range []struct {
		path, ctype, prefix, suffix string
		size, want                  int
	}{
		{"/localrun", StepContentType, stepMagic + "Q", "", maxRequestBody, http.StatusUnsupportedMediaType},
		{"/localrun", StepContentType, stepMagic + "Q", "", maxRequestBody + 1, http.StatusRequestEntityTooLarge},
		{"/query", "application/json", `{"sql":"`, `"}`, maxRequestBody + 1, http.StatusRequestEntityTooLarge},
		{"/cancel", "application/json", `{"job_id":"`, `"}`, maxRequestBody + 1, http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(srv.URL+c.path, c.ctype, strings.NewReader(pad(c.prefix, c.suffix, c.size)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s with a %d-byte body: HTTP %d, want %d", c.path, c.size, resp.StatusCode, c.want)
		}
	}

	calls.Store(0)
	_, err := NewHTTPWorkerClient("h", srv.URL).LocalRun(LocalRunRequest{JobID: "j", Func: "test_sums",
		Kwargs: Kwargs{json.RawMessage(pad(`"`, `"`, maxRequestBody))}})
	var ce *CallError
	if !errors.As(err, &ce) || ce.Status != http.StatusRequestEntityTooLarge || ce.Temporary() {
		t.Fatalf("err = %v, want a final HTTP 413", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("worker saw %d calls, want 1 (413 is final)", n)
	}
}
