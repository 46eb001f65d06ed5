package federation_test

// Tests for the /query table stream: lossless round trips of edge values,
// in-process ≡ HTTP merge results, truncated bodies, a peer answering in
// another format, and JSON envelopes that cannot be encoded.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/federation/faultinject"
)

func init() {
	federation.RegisterLocal("test_nan_moment", func(*federation.WorkerCtx, *engine.Table, federation.Kwargs) (federation.Transfer, error) {
		return federation.Transfer{"m": math.NaN()}, nil
	})
}

// edgeTable is a hospital data table holding every value the wire must
// carry unchanged: a NaN with a payload, ±Inf, -0.0, NULL in each of the
// four types, Int64 min/max and 2^62+1, empty and non-ASCII strings. off
// shifts the ordinary column x so hospitals differ; more than 4096 rows
// span several stream batches.
func edgeTable(t testing.TB, rows int, off float64) *engine.Table {
	t.Helper()
	tab := engine.NewTable(engine.Schema{
		{Name: "dataset", Type: engine.String},
		{Name: "f", Type: engine.Float64},
		{Name: "i", Type: engine.Int64},
		{Name: "s", Type: engine.String},
		{Name: "b", Type: engine.Bool},
		{Name: "x", Type: engine.Float64},
	})
	fs := []any{math.Float64frombits(0x7ff8000000000001), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), nil, 1.5}
	is := []any{int64(math.MinInt64), int64(math.MaxInt64), int64(1<<62 + 1), nil, int64(-7)}
	ss := []any{"", "βeta ü", nil, "a"}
	bs := []any{true, false, nil}
	for r := 0; r < rows; r++ {
		x := off + float64(r%97)*0.25
		if err := tab.AppendRow("edsd", fs[r%len(fs)], is[r%len(is)], ss[r%len(ss)], bs[r%len(bs)], x); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// identical fails unless a and b match bit for bit: schema, validity, float
// bits, integers, booleans and strings (codes resolved through each side's
// dictionary), NULL cells' payloads included.
func identical(t *testing.T, label string, a, b *engine.Table) {
	t.Helper()
	if !a.Schema().Equal(b.Schema()) || a.NumRows() != b.NumRows() {
		t.Fatalf("%s: shape %v×%d vs %v×%d", label, a.Schema(), a.NumRows(), b.Schema(), b.NumRows())
	}
	for j := 0; j < a.NumCols(); j++ {
		ca, cb := a.Col(j), b.Col(j)
		for i := 0; i < a.NumRows(); i++ {
			var same bool
			switch ca.Type() {
			case engine.Float64:
				same = math.Float64bits(ca.Float64s()[i]) == math.Float64bits(cb.Float64s()[i])
			case engine.Int64:
				same = ca.Int64s()[i] == cb.Int64s()[i]
			case engine.String:
				same = ca.StringAt(i) == cb.StringAt(i)
			case engine.Bool:
				same = ca.Bools()[i] == cb.Bools()[i]
			}
			if !same || ca.IsNull(i) != cb.IsNull(i) {
				t.Fatalf("%s: row %d column %s: %v (null %v) vs %v (null %v)", label, i,
					a.Schema()[j].Name, ca.Value(i), ca.IsNull(i), cb.Value(i), cb.IsNull(i))
			}
		}
	}
}

func TestWireTableRoundTrip(t *testing.T) {
	for _, rows := range []int{0, 11, 2*engine.DefaultMorselSize + 5} {
		tab := edgeTable(t, rows, 0)
		buf, err := json.Marshal(federation.EncodeTable(tab))
		if err != nil {
			t.Fatal(err)
		}
		var wt federation.WireTable
		if err := json.Unmarshal(buf, &wt); err != nil {
			t.Fatal(err)
		}
		back, err := federation.DecodeTable(&wt)
		if err != nil {
			t.Fatal(err)
		}
		identical(t, fmt.Sprintf("%d rows", rows), tab, back)
	}
}

// TestQueryHTTPMatchesInProcess runs the same merge queries over in-process
// workers and over the same workers behind HTTP servers: every answer —
// shipped rows, pushed-down partials, a master-side median, a degraded
// quorum — must match bit for bit.
func TestQueryHTTPMatchesInProcess(t *testing.T) {
	var local, remote []federation.WorkerClient
	var flaky []*faultinject.Client
	for h, rows := range []int{2*engine.DefaultMorselSize + 5, 40, 300} {
		db := engine.NewDB()
		db.RegisterTable(federation.DataTable, edgeTable(t, rows, float64(h)))
		w := federation.NewWorker(fmt.Sprintf("site%d", h), db)
		srv := httptest.NewServer((&federation.WorkerServer{Worker: w, AllowRawQuery: true}).Handler())
		t.Cleanup(srv.Close)
		var lc, rc federation.WorkerClient = w, federation.NewHTTPWorkerClient(w.ID(), srv.URL)
		if h == 1 {
			lf, rf := faultinject.Wrap(lc), faultinject.Wrap(rc)
			flaky = append(flaky, lf, rf)
			lc, rc = lf, rf
		}
		local, remote = append(local, lc), append(remote, rc)
	}
	newM := func(clients []federation.WorkerClient) *federation.Master {
		m, err := federation.NewMaster(clients, nil, federation.Security{},
			federation.WithBreaker(breakerOff), federation.WithTolerance(federation.Tolerance{MinWorkers: 2}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		return m
	}
	lm, rm := newM(local), newM(remote)

	for _, sql := range []string{
		"SELECT * FROM data",
		"SELECT i, s FROM data WHERE x > 10",
		"SELECT x, i, f FROM data ORDER BY x DESC",
		"SELECT i, s, f FROM data WHERE x > 3 LIMIT 7",
		"SELECT s, count(*) AS n, max(i) AS hi, min(x) AS lo FROM data GROUP BY s",
		"SELECT median(x) AS md FROM data",
	} {
		want, err := lm.MergeQuery(nil, sql)
		if err != nil {
			t.Fatalf("in-process %s: %v", sql, err)
		}
		got, err := rm.MergeQuery(nil, sql)
		if err != nil {
			t.Fatalf("HTTP %s: %v", sql, err)
		}
		identical(t, sql, want, got)
	}

	sql := "SELECT * FROM data WHERE x < 5"
	for _, fi := range flaky {
		fi.FailN("Query", 1)
	}
	want, wantDropped, err := lm.MergeQueryDegraded(nil, sql)
	if err != nil {
		t.Fatal(err)
	}
	got, gotDropped, err := rm.MergeQueryDegraded(nil, sql)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(wantDropped) != "[site1]" || fmt.Sprint(gotDropped) != "[site1]" {
		t.Fatalf("dropped: in-process %v, HTTP %v; want [site1]", wantDropped, gotDropped)
	}
	identical(t, "degraded "+sql, want, got)
}

// frameEnds walks a table stream's frames and returns where the prefix,
// the header and each batch end, plus the offset just before the trailer's
// row count.
func frameEnds(b []byte) []int {
	ends := []int{5}
	for off := 5; ; {
		size := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if size == 0 {
			return append(ends, off)
		}
		off += size
		ends = append(ends, off)
	}
}

// TestQueryStreamTruncation: a /query body cut at any byte — at a batch
// boundary or just before the trailer included — is an error, never a
// shorter table.
func TestQueryStreamTruncation(t *testing.T) {
	// Two narrow columns keep the every-offset sweep small while still
	// spanning two batches.
	tab := engine.NewTable(engine.Schema{{Name: "dataset", Type: engine.String}, {Name: "b", Type: engine.Bool}})
	for r := 0; r < engine.DefaultMorselSize+50; r++ {
		var b any = r%3 == 0
		if r%7 == 0 {
			b = nil
		}
		if err := tab.AppendRow("edsd", b); err != nil {
			t.Fatal(err)
		}
	}
	db := engine.NewDB()
	db.RegisterTable(federation.DataTable, tab)
	srv := httptest.NewServer((&federation.WorkerServer{Worker: federation.NewWorker("h", db), AllowRawQuery: true}).Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(`{"sql":"SELECT * FROM data"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != federation.TableContentType {
		t.Fatalf("content type %q", ct)
	}
	full, err := engine.ReadTable(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	identical(t, "full body", tab, full)
	for cut := 0; cut < len(body); cut++ {
		if part, err := engine.ReadTable(bytes.NewReader(body[:cut])); err == nil {
			t.Fatalf("body cut at %d of %d decoded as a %d-row table", cut, len(body), part.NumRows())
		}
	}

	ends := frameEnds(body)
	if len(ends) != 5 {
		t.Fatalf("frame ends %v: want prefix, header, two batches, trailer marker", ends)
	}
	var served atomic.Value
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", federation.TableContentType)
		w.Write(served.Load().([]byte))
	}))
	defer stub.Close()
	c := federation.NewHTTPWorkerClient("stub", stub.URL)
	for _, end := range ends {
		served.Store(body[:end])
		if part, err := c.Query("SELECT * FROM data"); err == nil {
			t.Fatalf("HTTP body cut at %d of %d decoded as a %d-row table", end, len(body), part.NumRows())
		}
	}
}

// TestQueryRejectsOtherFormat: a 200 /query answer that is not a table
// stream (a worker from before the column-frame wire) fails loudly and is
// not retried.
func TestQueryRejectsOtherFormat(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"columns":[{"name":"n","type":"BIGINT"}],"rows":[[1]]}`))
	}))
	defer stub.Close()
	_, err := federation.NewHTTPWorkerClient("old", stub.URL).Query("SELECT count(*) AS n FROM data")
	var ce *federation.CallError
	if !errors.As(err, &ce) || ce.Temporary() || !strings.Contains(err.Error(), "older /query format") {
		t.Fatalf("err = %v, want a final CallError naming the older /query format", err)
	}
}

// TestLocalRunNaNAnswers422: a step result JSON cannot carry fails with the
// marshal error as a final 422, delivered once, instead of an empty 200.
func TestLocalRunNaNAnswers422(t *testing.T) {
	h := (&federation.WorkerServer{Worker: chaosWorker(t, "nan", "edsd", 20)}).Handler()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	_, err := federation.NewHTTPWorkerClient("nan", srv.URL).LocalRun(federation.LocalRunRequest{
		JobID: "j", Func: "test_nan_moment", DataQuery: "SELECT age FROM data", ShareToGlobal: true})
	var ce *federation.CallError
	if !errors.As(err, &ce) || ce.Status != http.StatusUnprocessableEntity || !strings.Contains(err.Error(), "unsupported value: NaN") {
		t.Fatalf("err = %v, want HTTP 422 naming the unsupported NaN", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("worker saw %d calls, want 1 (422 is final)", n)
	}
}
