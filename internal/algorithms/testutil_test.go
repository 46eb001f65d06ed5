package algorithms

import (
	"fmt"
	"math"
	"testing"

	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/smpc"
	"mip/internal/synth"
)

// testFed builds a federation over nWorkers shards of synthetic dementia
// data plus a pooled engine DB holding all rows, for equivalence checks.
func testFed(t *testing.T, nWorkers int, rowsPerWorker int, secure bool) (*federation.Master, *engine.DB) {
	t.Helper()
	var cluster *smpc.Cluster
	if secure {
		var err error
		cluster, err = smpc.NewCluster(smpc.Config{Scheme: smpc.ShamirScheme, Nodes: 3, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
	}
	pooledDB := engine.NewDB()
	pooled := engine.NewTable(engine.Schema(synth.Variables))

	var clients []federation.WorkerClient
	rowBase := 0
	for i := 0; i < nWorkers; i++ {
		tab, err := synth.Generate(synth.Spec{
			Dataset: "edsd",
			Rows:    rowsPerWorker,
			Seed:    int64(100 + i),
			Shift:   float64(i) * 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Re-key row ids so they are globally unique (as real deployments
		// guarantee via subject codes).
		rekeyed := engine.NewTable(engine.Schema(synth.Variables))
		for r := 0; r < tab.NumRows(); r++ {
			row := tab.Row(r)
			row[0] = int64(rowBase + r)
			if err := rekeyed.AppendRow(row...); err != nil {
				t.Fatal(err)
			}
			if err := pooled.AppendRow(row...); err != nil {
				t.Fatal(err)
			}
		}
		rowBase += tab.NumRows()
		db := engine.NewDB()
		db.RegisterTable(federation.DataTable, rekeyed)
		opts := []federation.WorkerOption{}
		if secure {
			opts = append(opts, federation.WithSMPC(cluster))
		}
		clients = append(clients, federation.NewWorker(fmt.Sprintf("w%d", i), db, opts...))
	}
	pooledDB.RegisterTable(federation.DataTable, pooled)
	m, err := federation.NewMaster(clients, cluster, federation.Security{UseSMPC: secure})
	if err != nil {
		t.Fatal(err)
	}
	return m, pooledDB
}

func runAlg(t *testing.T, m *federation.Master, name string, req Request) Result {
	t.Helper()
	a := Get(name)
	if a == nil {
		t.Fatalf("algorithm %q not registered", name)
	}
	sess, err := m.NewSession(req.Datasets)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run(sess, req)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// pooledColumn pulls a complete-cases column set from the pooled DB.
func pooledColumns(t *testing.T, db *engine.DB, vars []string, filter string) [][]float64 {
	t.Helper()
	sql := "SELECT "
	for i, v := range vars {
		if i > 0 {
			sql += ", "
		}
		sql += v
	}
	sql += " FROM data WHERE "
	for i, v := range vars {
		if i > 0 {
			sql += " AND "
		}
		sql += v + " IS NOT NULL"
	}
	if filter != "" {
		sql += " AND (" + filter + ")"
	}
	tab, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, len(vars))
	for i := range vars {
		col, _, err := tab.Float64Column(vars[i])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = col
	}
	return out
}

func near(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) || math.Abs(got-want) > tol*(1+math.Abs(want)) {
		t.Fatalf("%s = %v, want %v (tol %v)", what, got, want, tol)
	}
}
