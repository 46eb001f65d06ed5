package algorithms

import (
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/smpc"
	"mip/internal/synth"
)

// dementiaTables builds nWorkers hospitals of synthetic dementia data with
// globally unique row ids (as real deployments guarantee via subject codes).
func dementiaTables(t *testing.T, nWorkers, rowsPerWorker int) []*engine.Table {
	t.Helper()
	var out []*engine.Table
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
		rekeyed := engine.NewTable(engine.Schema(synth.Variables))
		for r := 0; r < tab.NumRows(); r++ {
			row := tab.Row(r)
			row[0] = int64(rowBase + r)
			if err := rekeyed.AppendRow(row...); err != nil {
				t.Fatal(err)
			}
		}
		rowBase += tab.NumRows()
		out = append(out, rekeyed)
	}
	return out
}

// pooledDB holds every hospital's rows in one engine DB, the reference the
// federated results are checked against.
func pooledDB(t *testing.T, tables []*engine.Table) *engine.DB {
	t.Helper()
	pooled := engine.NewTable(tables[0].Schema())
	for _, tab := range tables {
		for r := 0; r < tab.NumRows(); r++ {
			if err := pooled.AppendRow(tab.Row(r)...); err != nil {
				t.Fatal(err)
			}
		}
	}
	db := engine.NewDB()
	db.RegisterTable(federation.DataTable, pooled)
	return db
}

// fedOver builds a federation with one worker per hospital table, reached
// in process or through WorkerServers behind httptest, plain or through a
// Shamir SMPC cluster.
func fedOver(t *testing.T, tables []*engine.Table, overHTTP, secure bool) *federation.Master {
	t.Helper()
	return fedWith(t, tables, overHTTP, secure, nil)
}

// fedWith is fedOver with each worker's client passed through wrap (nil
// keeps them as built), which also sees the worker's engine DB.
func fedWith(t *testing.T, tables []*engine.Table, overHTTP, secure bool,
	wrap func(i int, db *engine.DB, c federation.WorkerClient) federation.WorkerClient) *federation.Master {
	t.Helper()
	var cluster *smpc.Cluster
	if secure {
		var err error
		if cluster, err = smpc.NewCluster(smpc.Config{Scheme: smpc.ShamirScheme, Nodes: 3, Seed: 5}); err != nil {
			t.Fatal(err)
		}
	}
	var clients []federation.WorkerClient
	for i, tab := range tables {
		db := engine.NewDB()
		db.RegisterTable(federation.DataTable, tab)
		var opts []federation.WorkerOption
		if secure {
			opts = append(opts, federation.WithSMPC(cluster))
		}
		w := federation.NewWorker(fmt.Sprintf("w%d", i), db, opts...)
		var c federation.WorkerClient = w
		if overHTTP {
			srv := httptest.NewServer((&federation.WorkerServer{Worker: w}).Handler())
			t.Cleanup(srv.Close)
			c = federation.NewHTTPWorkerClient(w.ID(), srv.URL)
		}
		if wrap != nil {
			c = wrap(i, db, c)
		}
		clients = append(clients, c)
	}
	m, err := federation.NewMaster(clients, cluster, federation.Security{UseSMPC: secure})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// testFed builds an in-process federation over nWorkers shards of synthetic
// dementia data plus a pooled engine DB holding all rows, for equivalence
// checks.
func testFed(t *testing.T, nWorkers int, rowsPerWorker int, secure bool) (*federation.Master, *engine.DB) {
	t.Helper()
	tables := dementiaTables(t, nWorkers, rowsPerWorker)
	return fedOver(t, tables, false, secure), pooledDB(t, tables)
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
