package algorithms

import (
	"encoding/json"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/stats"
	"mip/internal/synth"
)

func TestDescriptiveMatchesPooled(t *testing.T) {
	m, pooled := testFed(t, 3, 200, false)
	req := Request{
		Datasets: []string{"edsd"},
		Y:        []string{"p_tau", "lefthippocampus"},
	}
	res := runAlg(t, m, "descriptive_stats", req)
	per := res["datasets"].(map[string][]VariableSummary)
	rows := per["all"]
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}

	for vi, name := range []string{"p_tau", "lefthippocampus"} {
		cols := pooledColumns(t, pooled, []string{name}, "")
		ref := stats.Describe(cols[0], 0)
		row := rows[vi]
		if int(row.Datapoints) != ref.N {
			t.Fatalf("%s datapoints = %v, want %d", name, row.Datapoints, ref.N)
		}
		near(t, row.Mean, ref.Mean, 1e-9, name+" mean")
		near(t, row.SE, ref.SE, 1e-9, name+" SE")
		near(t, row.Min, ref.Min, 1e-9, name+" min")
		near(t, row.Max, ref.Max, 1e-9, name+" max")
		// Quartiles come from a 256-bin histogram: exact to range/256.
		tol := (ref.Max - ref.Min) / float64(histBins) * 1.5
		if math.Abs(row.Q1-ref.Q1) > tol || math.Abs(row.Q2-ref.Q2) > tol || math.Abs(row.Q3-ref.Q3) > tol {
			t.Fatalf("%s quartiles: got %v/%v/%v want %v/%v/%v (tol %v)",
				name, row.Q1, row.Q2, row.Q3, ref.Q1, ref.Q2, ref.Q3, tol)
		}
	}
}

func TestDescriptiveNACounts(t *testing.T) {
	m, pooled := testFed(t, 2, 150, false)
	// Inject missingness is already in synth only when MissingRate set;
	// testFed uses 0, so NA must be 0 and Datapoints = total rows.
	res := runAlg(t, m, "descriptive_stats", Request{Datasets: []string{"edsd"}, Y: []string{"ab42"}})
	per := res["datasets"].(map[string][]VariableSummary)
	row := per["all"][0]
	tab, err := pooled.Query("SELECT count(*) AS n FROM data")
	if err != nil {
		t.Fatal(err)
	}
	total := float64(tab.Col(0).Int64s()[0])
	if row.Datapoints+row.NA != total {
		t.Fatalf("datapoints %v + NA %v != total %v", row.Datapoints, row.NA, total)
	}
}

func TestDescriptivePerDatasetKeys(t *testing.T) {
	m, _ := testFed(t, 2, 120, false)
	res := runAlg(t, m, "descriptive_stats", Request{Datasets: []string{"edsd"}, Y: []string{"p_tau"}})
	per := res["datasets"].(map[string][]VariableSummary)
	if _, ok := per["edsd"]; !ok {
		t.Fatal("missing per-dataset block")
	}
	if _, ok := per["all"]; !ok {
		t.Fatal("missing all block")
	}
}

// The SMPC path must deliver the same table (within fixed-point tolerance).
func TestDescriptiveSecureMatchesPlain(t *testing.T) {
	plain, _ := testFed(t, 3, 120, false)
	secure, _ := testFed(t, 3, 120, true)
	req := Request{Datasets: []string{"edsd"}, Y: []string{"lefthippocampus"}}
	rp := runAlg(t, plain, "descriptive_stats", req)["datasets"].(map[string][]VariableSummary)["all"][0]
	rs := runAlg(t, secure, "descriptive_stats", req)["datasets"].(map[string][]VariableSummary)["all"][0]
	near(t, rs.Datapoints, rp.Datapoints, 1e-9, "secure datapoints")
	near(t, rs.Mean, rp.Mean, 1e-4, "secure mean")
	near(t, rs.SE, rp.SE, 1e-3, "secure SE")
	near(t, rs.Min, rp.Min, 1e-4, "secure min")
	near(t, rs.Max, rp.Max, 1e-4, "secure max")
	near(t, rs.Q2, rp.Q2, 1e-2, "secure median")
}

func TestDescriptiveRequiresY(t *testing.T) {
	m, _ := testFed(t, 1, 50, false)
	sess, _ := m.NewSession(nil)
	if _, err := (&Descriptive{}).Run(sess, Request{}); err == nil {
		t.Fatal("missing Y must fail")
	}
}

// callCounter counts the /localrun calls a worker receives.
type callCounter struct {
	federation.WorkerClient
	n *atomic.Int64
}

func (c callCounter) LocalRun(req federation.LocalRunRequest) (federation.LocalRunResponse, error) {
	c.n.Add(1)
	return c.WorkerClient.LocalRun(req)
}

// TestDescriptiveRoundsPerGroup: one dataset's group is "all", computed
// once in 2 rounds, not twice in 4; two datasets take 2 rounds for each
// dataset and 2 for "all". The result equals computing every group.
func TestDescriptiveRoundsPerGroup(t *testing.T) {
	var tables []*engine.Table
	for i := 0; i < 2; i++ {
		var parts []*engine.Table
		for j, ds := range []string{"edsd", "ppmi"} {
			tab, err := synth.Generate(synth.Spec{Dataset: ds, Rows: 60, Seed: int64(10*i + j), MissingRate: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, tab)
		}
		tables = append(tables, concatTables(t, parts...))
	}
	calls := make([]*atomic.Int64, len(tables))
	m := fedWith(t, tables, false, false, func(i int, _ *engine.DB, c federation.WorkerClient) federation.WorkerClient {
		calls[i] = new(atomic.Int64)
		return callCounter{c, calls[i]}
	})
	for _, c := range []struct {
		datasets []string
		calls    int64
	}{{[]string{"edsd"}, 2}, {[]string{"edsd", "ppmi"}, 6}} {
		req := Request{Datasets: c.datasets, Y: []string{"p_tau", "lefthippocampus"}}
		for _, n := range calls {
			n.Store(0)
		}
		got, err := json.Marshal(runAlg(t, m, "descriptive_stats", req))
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range calls {
			if n.Load() != c.calls {
				t.Errorf("%v: worker %d got %d /localrun calls, want %d", c.datasets, i, n.Load(), c.calls)
			}
		}
		// Every group computed on its own, "all" included.
		sess, err := m.NewSession(req.Datasets)
		if err != nil {
			t.Fatal(err)
		}
		per := map[string][]VariableSummary{}
		for _, ds := range append(slices.Clone(req.Datasets), "all") {
			group := []string{ds}
			if ds == "all" {
				group = req.Datasets
			}
			if per[ds], err = describeOnce(sess, req, group); err != nil {
				t.Fatal(err)
			}
		}
		want, err := json.Marshal(Result{"datasets": per, "variables": req.Y})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%v:\n got %s\nwant %s", c.datasets, got, want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	counts := []float64{10, 10, 10, 10} // uniform over [0, 4)
	if q := histQuantile(counts, 0, 4, 0.5); math.Abs(q-2) > 1e-12 {
		t.Fatalf("median = %v", q)
	}
	if q := histQuantile(counts, 0, 4, 0.25); math.Abs(q-1) > 1e-12 {
		t.Fatalf("q1 = %v", q)
	}
	if !math.IsNaN(histQuantile([]float64{0, 0}, 0, 1, 0.5)) {
		t.Fatal("empty histogram should be NaN")
	}
	if q := histQuantile([]float64{5}, 3, 3, 0.5); q != 3 {
		t.Fatalf("degenerate range = %v", q)
	}
}
