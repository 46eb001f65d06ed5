package federation

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mip/internal/obs"
)

// collectNames flattens a span tree into name → node for assertions.
func collectNames(nodes []*obs.SpanNode, into map[string]*obs.SpanNode) {
	for _, n := range nodes {
		into[n.Name] = n
		collectNames(n.Children, into)
	}
}

// The complete span tree must survive the HTTP hop: worker-side exec/udf/
// engine-query spans ship back in the LocalRunResponse envelope and graft
// under the master's per-worker round-trip spans. The worker shares this
// process's trace store, so the tree alone would pass with an envelope that
// ships no spans: the spans HTTPWorkerClient.LocalRun decoded are checked
// against the worker's own answer first.
func TestTraceSpansOverHTTP(t *testing.T) {
	w := NewWorker("thx", newWorkerDB(t, "edsd", 40, 0))
	srv := httptest.NewServer((&WorkerServer{Worker: w}).Handler())
	t.Cleanup(srv.Close)
	req := LocalRunRequest{JobID: "trace-http-" + obs.NewSpanID(), Func: "test_sums", DataQuery: "SELECT age FROM data",
		Trace: &obs.TraceRef{TraceID: "trace-http-direct-" + obs.NewSpanID(), SpanID: "master-span"}}
	got, err := NewHTTPWorkerClient(w.ID(), srv.URL).LocalRun(req)
	if err != nil {
		t.Fatal(err)
	}
	// A replay of the job id returns the answer the worker shipped.
	sent, err := w.LocalRun(req)
	if err != nil {
		t.Fatal(err)
	}
	sameResponse(t, "decoded over HTTP", sent, got)
	byName := map[string]obs.SpanData{}
	ops := 0
	for _, d := range got.Spans {
		byName[d.Name] = d
		if strings.HasPrefix(d.Name, "op ") {
			ops++
		}
	}
	exec, udf, query := byName["exec test_sums"], byName["udf fed_test_sums"], byName["engine query"]
	switch {
	case exec.Parent != req.Trace.SpanID || exec.Attrs["worker"] != "thx":
		t.Fatalf("exec span %+v: want parent %q and worker attr", exec, req.Trace.SpanID)
	case udf.Parent != exec.SpanID || query.Parent != exec.SpanID:
		t.Fatalf("udf %+v and engine query %+v must be children of exec %q", udf, query, exec.SpanID)
	case query.Attrs["rows_scanned"] == "" || ops == 0:
		t.Fatalf("engine query %+v with %d op spans: want rows_scanned and operators", query, ops)
	}
	for _, d := range got.Spans {
		if d.TraceID != req.Trace.TraceID || d.End.Before(d.Start) {
			t.Fatalf("span %+v: want trace %q and end ≥ start", d, req.Trace.TraceID)
		}
		if p, ok := byID(got.Spans, d.Parent); strings.HasPrefix(d.Name, "op ") && (!ok || (p.Name != "engine query" && !strings.HasPrefix(p.Name, "op "))) {
			t.Fatalf("operator span %q hangs under %q", d.Name, p.Name)
		}
	}
	// A fresh in-process run of the same step has the same structure.
	req.JobID += "-inproc"
	local, err := w.LocalRun(req)
	if err != nil {
		t.Fatal(err)
	}
	if shape(local) != shape(got) || !reflect.DeepEqual(local.Transfer, got.Transfer) || local.Rows != got.Rows {
		t.Fatalf("in process %s %+v, over HTTP %s %+v", shape(local), local.Transfer, shape(got), got.Transfer)
	}

	var clients []WorkerClient
	for i := 0; i < 2; i++ {
		db := newWorkerDB(t, "edsd", 40, float64(i))
		w := NewWorker(fmt.Sprintf("th%d", i), db)
		srv := httptest.NewServer((&WorkerServer{Worker: w}).Handler())
		t.Cleanup(srv.Close)
		clients = append(clients, NewHTTPWorkerClient(w.ID(), srv.URL))
	}
	m, err := NewMaster(clients, nil, Security{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.NewSession([]string{"edsd"})
	if err != nil {
		t.Fatal(err)
	}

	traceID := "trace-http-test-" + obs.NewSpanID() // unique per run: the trace store is process-wide
	root := obs.DefaultTraces.StartSpan(traceID, "", "experiment test")
	s.SetTrace(obs.TraceRef{TraceID: traceID, SpanID: root.ID()})
	if _, err := s.LocalRun(LocalRunSpec{Func: "test_sums", Vars: []string{"age"}}); err != nil {
		t.Fatal(err)
	}
	root.End()

	tree := obs.DefaultTraces.Tree(traceID)
	if len(tree) != 1 {
		t.Fatalf("roots = %d, want 1 (experiment)", len(tree))
	}
	nodes := map[string]*obs.SpanNode{}
	collectNames(tree, nodes)

	// experiment → localrun → worker thN → exec → {udf, engine query}
	lr := nodes["localrun test_sums"]
	if lr == nil {
		t.Fatalf("missing localrun span; have %v", keys(nodes))
	}
	if lr.Parent != root.ID() {
		t.Fatalf("localrun parent = %q, want experiment root %q", lr.Parent, root.ID())
	}
	for i := 0; i < 2; i++ {
		wn := nodes[fmt.Sprintf("worker th%d", i)]
		if wn == nil {
			t.Fatalf("missing worker th%d span; have %v", i, keys(nodes))
		}
		if wn.Parent != lr.SpanID {
			t.Fatalf("worker span parent = %q, want localrun %q", wn.Parent, lr.SpanID)
		}
		if wn.DurMS <= 0 {
			t.Fatalf("worker th%d round-trip duration = %v, want > 0", i, wn.DurMS)
		}
		// The exec span was recorded on the worker side of the HTTP hop.
		var exec *obs.SpanNode
		for _, c := range wn.Children {
			if c.Name == "exec test_sums" {
				exec = c
			}
		}
		if exec == nil {
			t.Fatalf("worker th%d has no exec child over HTTP: %+v", i, wn.Children)
		}
		if exec.DurMS <= 0 {
			t.Fatalf("exec span duration = %v, want > 0", exec.DurMS)
		}
		if got := exec.Attrs["worker"]; got != fmt.Sprintf("th%d", i) {
			t.Fatalf("exec worker attr = %q", got)
		}
		var udf, q bool
		for _, c := range exec.Children {
			switch c.Name {
			case "udf fed_test_sums":
				udf = true
			case "engine query":
				q = true
				if c.Attrs["rows_scanned"] == "" {
					t.Fatal("engine query span missing rows_scanned attr")
				}
			}
		}
		if !udf || !q {
			t.Fatalf("exec children incomplete (udf=%v query=%v): %+v", udf, q, exec.Children)
		}
	}
}

// Plain in-process transport must produce the same tree shape (spans are
// published locally and deduplicated against the response envelope).
func TestTraceSpansInProcess(t *testing.T) {
	db := newWorkerDB(t, "edsd", 40, 0)
	w := NewWorker("local0", db)
	m, err := NewMaster([]WorkerClient{w}, nil, Security{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := m.NewSession([]string{"edsd"})

	traceID := "trace-inproc-test-" + obs.NewSpanID() // unique per run: the trace store is process-wide
	root := obs.DefaultTraces.StartSpan(traceID, "", "experiment test")
	s.SetTrace(obs.TraceRef{TraceID: traceID, SpanID: root.ID()})
	if _, err := s.LocalRun(LocalRunSpec{Func: "test_sums", Vars: []string{"age"}}); err != nil {
		t.Fatal(err)
	}
	root.End()

	nodes := map[string]*obs.SpanNode{}
	collectNames(obs.DefaultTraces.Tree(traceID), nodes)
	for _, want := range []string{"experiment test", "localrun test_sums", "worker local0", "exec test_sums"} {
		if nodes[want] == nil {
			t.Fatalf("missing span %q; have %v", want, keys(nodes))
		}
	}
	// Dedup: exactly one exec span even though the in-process worker both
	// publishes locally and returns spans in the envelope.
	count := 0
	for _, d := range obs.DefaultTraces.Spans(traceID) {
		if d.Name == "exec test_sums" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("exec spans = %d, want 1 (dedup failed)", count)
	}
}

// Untraced sessions must record nothing (nil-span fast path).
func TestNoTraceNoSpans(t *testing.T) {
	db := newWorkerDB(t, "edsd", 40, 0)
	w := NewWorker("quiet0", db)
	m, err := NewMaster([]WorkerClient{w}, nil, Security{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := m.NewSession([]string{"edsd"})
	if _, err := s.LocalRun(LocalRunSpec{Func: "test_sums", Vars: []string{"age"}}); err != nil {
		t.Fatal(err)
	}
	if got := obs.DefaultTraces.Spans(""); got != nil {
		t.Fatalf("untraced run recorded spans: %v", got)
	}
}

// byID finds the span with the given id.
func byID(spans []obs.SpanData, id string) (obs.SpanData, bool) {
	for _, d := range spans {
		if d.SpanID == id {
			return d, true
		}
	}
	return obs.SpanData{}, false
}

// shape renders a response's span tree by name, children sorted: what two
// runs of one step share (timings and cache attributes differ).
func shape(r LocalRunResponse) string {
	var render func(parent string) string
	render = func(parent string) string {
		var kids []string
		for _, d := range r.Spans {
			if d.Parent == parent {
				kids = append(kids, d.Name+"{"+render(d.SpanID)+"}")
			}
		}
		slices.Sort(kids)
		return strings.Join(kids, " ")
	}
	roots := ""
	for _, d := range r.Spans {
		if _, ok := byID(r.Spans, d.Parent); !ok {
			roots += render(d.Parent)
			break
		}
	}
	return roots
}

func keys(m map[string]*obs.SpanNode) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
