package algorithms

import (
	"encoding/json"
	"math/bits"
	"net/http/httptest"
	"testing"

	"mip/internal/engine"
	"mip/internal/federation"
)

// TestLargestCartStepFitsBodyCap: a CART round carries the whole tree, so
// its envelope is the largest legitimate worker request. A full depth-13
// classification tree over three 1024-bin features must still run over
// HTTP, under the worker's request body cap.
func TestLargestCartStepFitsBodyCap(t *testing.T) {
	db := engine.NewDB()
	db.RegisterTable(federation.DataTable, dementiaTables(t, 1, 200)[0])
	srv := httptest.NewServer((&federation.WorkerServer{Worker: federation.NewWorker("w", db)}).Handler())
	defer srv.Close()

	const depth = 13
	vars := []string{"lefthippocampus", "p_tau", "ab42"}
	tree := &Tree{YVar: "alzheimerbroadcategory", Classes: []string{"CN", "MCI", "AD"}}
	for _, v := range vars {
		tree.Features = append(tree.Features, TreeFeature{Name: v, Edges: featureBinEdges(1.8, 1234.5, 1024)})
	}
	for id := 0; id < 1<<(depth+1)-1; id++ {
		n := TreeNode{ID: id, Depth: bits.Len(uint(id+1)) - 1, N: float64(1<<depth) / float64(id+1),
			Prediction: float64(id % 3), ClassDist: []float64{0.2 + 1/float64(id+3), 0.3, 0.5 - 1/float64(id+3)}}
		if n.Depth < depth {
			f := id % len(vars)
			n.Var, n.Threshold, n.Left, n.Right = vars[f], tree.Features[f].Edges[1+id%1023], 2*id+1, 2*id+2
		} else {
			n.Leaf = true
		}
		tree.Nodes = append(tree.Nodes, n)
	}
	kwargs, err := json.Marshal(treeArgs{Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := federation.NewHTTPWorkerClient("w", srv.URL).LocalRun(federation.LocalRunRequest{
		JobID: "cart", Func: "tree_eval_local", Kwargs: federation.Kwargs{RawMessage: kwargs},
		DataQuery: "SELECT alzheimerbroadcategory, lefthippocampus, p_tau, ab42 FROM data"})
	if err != nil {
		t.Fatalf("a %d-byte tree step: %v", len(kwargs), err)
	}
	if _, ok := resp.Transfer["conf"]; !ok {
		t.Fatalf("a %d-byte tree step answered %v", len(kwargs), resp.Transfer)
	}
	t.Logf("tree kwargs: %d bytes", len(kwargs))
}
