package federation

import (
	"fmt"
	"net/http/httptest"
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
// under the master's per-worker round-trip spans.
func TestTraceSpansOverHTTP(t *testing.T) {
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

func keys(m map[string]*obs.SpanNode) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
