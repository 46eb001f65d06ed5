package main

import (
	"fmt"
	"strings"

	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/obs"
	"mip/internal/synth"
)

func init() {
	register("e14", "Query observability: EXPLAIN ANALYZE + per-hospital operator breakdown (use-case query)", runE14)
}

// E14 — the Alzheimer's use-case query, profiled end to end: the federated
// EXPLAIN ANALYZE plan over the merge view, then a traced experiment whose
// span tree carries each hospital's operator breakdown.
func runE14() {
	const nWorkers = 4
	const rowsEach = 2000
	var clients []federation.WorkerClient
	for i := 0; i < nWorkers; i++ {
		tab, err := synth.Generate(synth.Spec{
			Dataset: "edsd", Rows: rowsEach, Seed: int64(1400 + i), Shift: float64(i) * 0.2,
		})
		fatalIf(err)
		db := engine.NewDB()
		db.RegisterTable(federation.DataTable, tab)
		clients = append(clients, federation.NewWorker(fmt.Sprintf("hospital-%d", i), db))
	}
	m, err := federation.NewMaster(clients, nil, federation.Security{})
	fatalIf(err)
	defer m.Close()

	const useCase = `SELECT alzheimerbroadcategory AS dx, count(*) AS n,
  avg(lefthippocampus) AS lh, avg(minimentalstate) AS mmse
FROM data GROUP BY alzheimerbroadcategory ORDER BY dx`

	header("EXPLAIN ANALYZE over the federated merge view (%d hospitals × %d rows)", nWorkers, rowsEach)
	lines, err := m.Explain([]string{"edsd"}, useCase, true)
	fatalIf(err)
	for _, l := range lines {
		fmt.Println(l)
	}

	header("per-hospital operator breakdown from the experiment trace")
	s, err := m.NewSession([]string{"edsd"})
	fatalIf(err)
	const traceID = "e14-trace"
	root := obs.DefaultTraces.StartSpan(traceID, "", "experiment e14")
	s.SetTrace(obs.TraceRef{TraceID: traceID, SpanID: root.ID()})
	vars := []string{"lefthippocampus", "minimentalstate"}
	_, err = s.LocalRun(federation.LocalRunSpec{
		Func:   "desc_summary",
		Vars:   vars,
		Kwargs: map[string][]string{"vars": vars},
	})
	fatalIf(err)
	root.End()

	fmt.Printf("%-12s %-28s %10s %10s %12s\n", "hospital", "operator", "rows_in", "rows_out", "time")
	for _, t := range obs.DefaultTraces.Tree(traceID) {
		printOpRows(t, "")
	}
}

// printOpRows walks a span tree printing one row per worker operator span.
func printOpRows(n *obs.SpanNode, worker string) {
	if strings.HasPrefix(n.Name, "worker ") {
		worker = strings.TrimPrefix(n.Name, "worker ")
	}
	if strings.HasPrefix(n.Name, "op ") && worker != "" {
		op := n.Attrs["op"]
		if d := n.Attrs["detail"]; d != "" {
			if len(d) > 20 {
				d = d[:17] + "..."
			}
			op += " " + d
		}
		fmt.Printf("%-12s %-28s %10s %10s %9.3fms\n",
			worker, op, n.Attrs["rows_in"], n.Attrs["rows_out"], n.DurMS)
	}
	for _, c := range n.Children {
		printOpRows(c, worker)
	}
}
