package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"mip/internal/api"
	"mip/internal/catalogue"
	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/queue"
	"mip/internal/smpc"
	"mip/internal/synth"
)

const dataset = "edsd"

// topoSpec sizes one federation.
type topoSpec struct {
	hospitals int
	rows      int   // per hospital
	secure    bool  // aggregate through a 3-node full-threshold SMPC cluster
	cacheMB   int64 // master result cache budget (0 = off)
	rawQuery  bool  // workers serve POST /query (merge-table path)
	rest      bool  // front the master with the REST API and the task queue
}

// topology is the whole deployment inside this process: workers behind real
// loopback TCP listeners, a master that reaches them only through
// HTTPWorkerClient, and optionally the REST API with its queue runner, also
// on a loopback listener.
type topology struct {
	workers []*federation.Worker
	servers []*http.Server
	cluster *smpc.Cluster
	master  *federation.Master
	runner  *queue.Runner
	api     *api.Server
	apiURL  string
	// transport is shared by every client of this topology so connections
	// are reused and can be closed with it.
	transport *http.Transport
}

// generateHospital makes hospital i's table for the seed: its own site shift,
// a little missing data, and row ids that are unique across the federation.
func generateHospital(seed int64, i, rows int) (*engine.Table, error) {
	t, err := synth.Generate(synth.Spec{
		Dataset: dataset, Rows: rows, Seed: seed*7919 + int64(i),
		Shift: float64(i) * 0.2, MissingRate: 0.02,
	})
	if err != nil {
		return nil, err
	}
	ids := make([]int64, rows)
	for r := range ids {
		ids[r] = int64(i*rows + r)
	}
	cols := make([]*engine.Vector, t.NumCols())
	for c := range cols {
		cols[c] = t.Col(c)
	}
	cols[0] = engine.NewInt64Vector(ids, nil)
	return engine.NewTableFromVectors(t.Schema(), cols)
}

// serve starts h on a fresh loopback port and returns its base URL.
func (t *topology) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	t.servers = append(t.servers, srv)
	go srv.Serve(ln) // returns when close() closes the server
	return "http://" + ln.Addr().String(), nil
}

// buildTopology generates the hospitals' data and assembles the deployment.
// With a recorder, every seam is wrapped for the traced pass.
func buildTopology(spec topoSpec, seed int64, rec *recorder) (*topology, error) {
	t := &topology{transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	if spec.secure {
		c, err := smpc.NewCluster(smpc.Config{Scheme: smpc.FullThreshold, Nodes: 3, Seed: seed})
		if err != nil {
			return nil, err
		}
		t.cluster = c
	}
	var clients []federation.WorkerClient
	for i := 0; i < spec.hospitals; i++ {
		tab, err := generateHospital(seed, i, spec.rows)
		if err != nil {
			t.close()
			return nil, err
		}
		db := engine.NewDB()
		db.RegisterTable(federation.DataTable, tab)
		var opts []federation.WorkerOption
		if t.cluster != nil {
			opts = append(opts, federation.WithSMPC(t.cluster))
		}
		id := fmt.Sprintf("hospital-%d", i)
		w := federation.NewWorker(id, db, opts...)
		t.workers = append(t.workers, w)
		h := (&federation.WorkerServer{Worker: w, AllowRawQuery: spec.rawQuery}).Handler()
		if rec != nil {
			h = traceHandler(rec, layerWorker, id, h)
		}
		url, err := t.serve(h)
		if err != nil {
			t.close()
			return nil, err
		}
		hc := federation.NewHTTPWorkerClient(id, url)
		hc.Client = &http.Client{Transport: t.transport}
		if rec != nil {
			clients = append(clients, newTracedWorker(hc, rec))
		} else {
			clients = append(clients, hc)
		}
	}
	var mopts []federation.MasterOption
	if spec.cacheMB > 0 {
		mopts = append(mopts, federation.WithResultCacheBytes(spec.cacheMB<<20))
	}
	m, err := federation.NewMaster(clients, t.cluster, federation.Security{UseSMPC: spec.secure}, mopts...)
	if err != nil {
		t.close()
		return nil, err
	}
	t.master = m
	if spec.rest {
		t.runner = queue.NewRunner(queue.NewBroker(0, 0), 2)
		t.api = api.NewServer(m, catalogue.Default(), t.runner)
		h := t.api.Handler()
		if rec != nil {
			h = traceHandler(rec, layerAPI, "", h)
		}
		if t.apiURL, err = t.serve(h); err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

// close stops every listener and background goroutine of the topology and
// waits for them.
func (t *topology) close() {
	if t.runner != nil {
		t.runner.Close()
	}
	if t.master != nil {
		t.master.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range t.servers {
		if err := s.Shutdown(ctx); err != nil {
			s.Close() // a handler outlived the grace period; drop its connection
		}
	}
	t.transport.CloseIdleConnections()
}

// pooled is the single-database reference: every hospital's rows in one
// table, in hospital order.
func pooled(tables []*engine.Table) (*engine.Table, error) {
	out := engine.NewTable(tables[0].Schema())
	for _, t := range tables {
		if err := out.Append(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}
