package federation

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"mip/internal/obs"
)

// A federated step's trace must contain each worker's per-operator
// breakdown: the engine plan nodes grafted as "op ..." spans under that
// worker's engine-query span, surviving the HTTP hop.
func TestTraceContainsPerWorkerOperatorSpans(t *testing.T) {
	var clients []WorkerClient
	for i := 0; i < 2; i++ {
		db := newWorkerDB(t, "edsd", 40, float64(i))
		w := NewWorker(fmt.Sprintf("oph%d", i), db)
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

	traceID := "trace-operator-test-" + obs.NewSpanID() // unique per run: the trace store is process-wide
	root := obs.DefaultTraces.StartSpan(traceID, "", "experiment test")
	s.SetTrace(obs.TraceRef{TraceID: traceID, SpanID: root.ID()})
	if _, err := s.LocalRun(LocalRunSpec{Func: "test_sums", Vars: []string{"age"}}); err != nil {
		t.Fatal(err)
	}
	root.End()

	tree := obs.DefaultTraces.Tree(traceID)
	nodes := map[string]*obs.SpanNode{}
	collectNames(tree, nodes)
	for i := 0; i < 2; i++ {
		wn := nodes[fmt.Sprintf("worker oph%d", i)]
		if wn == nil {
			t.Fatalf("missing worker oph%d span; have %v", i, keys(nodes))
		}
		// Find this worker's engine-query span and its operator children.
		var query *obs.SpanNode
		var find func(n *obs.SpanNode)
		find = func(n *obs.SpanNode) {
			if n.Name == "engine query" {
				query = n
			}
			for _, c := range n.Children {
				find(c)
			}
		}
		find(wn)
		if query == nil {
			t.Fatalf("worker oph%d has no engine query span", i)
		}
		ops := map[string]*obs.SpanNode{}
		var collectOps func(n *obs.SpanNode)
		collectOps = func(n *obs.SpanNode) {
			if strings.HasPrefix(n.Name, "op ") {
				ops[n.Attrs["op"]] = n
			}
			for _, c := range n.Children {
				collectOps(c)
			}
		}
		collectOps(query)
		if len(ops) == 0 {
			t.Fatalf("worker oph%d engine query has no operator spans: %+v", i, query.Children)
		}
		scan := ops["scan"]
		if scan == nil {
			t.Fatalf("worker oph%d operator spans missing scan: %v", i, ops)
		}
		if scan.Attrs["rows_out"] != "40" {
			t.Errorf("worker oph%d scan rows_out = %q, want 40", i, scan.Attrs["rows_out"])
		}
		if scan.Attrs["bytes"] == "" || scan.Attrs["bytes"] == "0" {
			t.Errorf("worker oph%d scan bytes attr = %q, want > 0", i, scan.Attrs["bytes"])
		}
		if ops["project"] == nil {
			t.Errorf("worker oph%d operator spans missing project: %v", i, ops)
		}
	}
}

// Master.Explain plans a federated aggregate over the workers' merge view.
func TestMasterExplain(t *testing.T) {
	var clients []WorkerClient
	for i := 0; i < 2; i++ {
		db := newWorkerDB(t, "edsd", 30, float64(i))
		clients = append(clients, NewWorker(fmt.Sprintf("exh%d", i), db))
	}
	m, err := NewMaster(clients, nil, Security{})
	if err != nil {
		t.Fatal(err)
	}

	lines, err := m.Explain([]string{"edsd"}, "SELECT avg(age) AS m FROM data", false)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "merge pushdown data") {
		t.Errorf("plan shape missing pushdown merge node:\n%s", joined)
	}
	for i := 0; i < 2; i++ {
		if !strings.Contains(joined, fmt.Sprintf("part exh%d", i)) {
			t.Errorf("plan missing part exh%d:\n%s", i, joined)
		}
	}

	analyzed, err := m.Explain([]string{"edsd"}, "SELECT avg(age) AS m FROM data", true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(analyzed, "\n"), "rows_out=") {
		t.Errorf("analyzed plan missing measured stats:\n%s", strings.Join(analyzed, "\n"))
	}

	if _, err := m.Explain([]string{"nope"}, "SELECT avg(age) AS m FROM data", false); err == nil {
		t.Error("Explain over unknown dataset should fail")
	}
}
