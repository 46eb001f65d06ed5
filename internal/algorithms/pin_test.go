package algorithms

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"

	"mip/internal/engine"
	"mip/internal/federation"
)

// writeAfterFirstStep is a step hook: once the wrapped worker has answered
// its first step, write runs (an append to that worker's data table).
type writeAfterFirstStep struct {
	federation.WorkerClient
	once  sync.Once
	write func()
}

func (h *writeAfterFirstStep) LocalRun(req federation.LocalRunRequest) (federation.LocalRunResponse, error) {
	resp, err := h.WorkerClient.LocalRun(req)
	h.once.Do(h.write)
	return resp, err
}

// TestWriteBetweenRounds: a hospital appends rows after round 1 of an
// iterative algorithm. The session keeps reading the catalog version its
// first round pinned on every worker, so the result is exactly the one over
// the data as it stood at the pin — and within rounding of the pooled
// answer over those rows — while a fresh session sees the write. Plain and
// Shamir, in process and over HTTP.
func TestWriteBetweenRounds(t *testing.T) {
	cases := []struct {
		alg string
		req Request
	}{
		{"logistic_regression", Request{Datasets: []string{"edsd"}, Y: []string{"alzheimerbroadcategory"},
			X: []string{"lefthippocampus", "p_tau"}, Filter: "alzheimerbroadcategory IN ('AD', 'CN')",
			Parameters: map[string]any{"pos_level": "AD"}}},
		{"kmeans", Request{Datasets: []string{"edsd"}, Y: []string{"ab42", "p_tau"},
			Parameters: map[string]any{"k": 2, "iterations_max_number": 10}}},
	}
	tables := dementiaTables(t, 3, 200)
	extra := tables[0].Slice(0, 80)
	written := append([]*engine.Table{concatTables(t, tables[0], extra)}, tables[1:]...)
	for _, c := range cases {
		run := func(m *federation.Master) []byte {
			t.Helper()
			sess, err := m.NewSession(c.req.Datasets)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			res, err := Get(c.alg).Run(sess, c.req)
			if err != nil {
				t.Fatalf("%s: %v", c.alg, err)
			}
			doc, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			return doc
		}
		pooled := run(fedOver(t, []*engine.Table{concatTables(t, tables...)}, false, false))
		for _, secure := range []bool{false, true} {
			for _, overHTTP := range []bool{false, true} {
				label := fmt.Sprintf("%s secure=%v http=%v", c.alg, secure, overHTTP)
				wrote := false
				m := fedWith(t, tables, overHTTP, secure, func(i int, db *engine.DB, wc federation.WorkerClient) federation.WorkerClient {
					if i != 0 {
						return wc
					}
					return &writeAfterFirstStep{WorkerClient: wc, write: func() {
						if err := db.Append(federation.DataTable, extra); err != nil {
							t.Error(err)
						}
						wrote = true
					}}
				})
				got := run(m)
				if !wrote {
					t.Fatalf("%s: the hook never wrote", label)
				}
				if atPin := run(fedOver(t, tables, overHTTP, secure)); string(got) != string(atPin) {
					t.Errorf("%s: result differs from the one over the data at the pin\ngot:    %s\nat pin: %s", label, got, atPin)
				}
				tol := 1e-6
				if secure {
					tol = 1e-3 // fixed-point shares
				}
				if err := jsonNear(got, pooled, tol); err != nil {
					t.Errorf("%s: result is not the pooled answer at the pin: %v", label, err)
				}
				fresh := run(m)
				if after := run(fedOver(t, written, overHTTP, secure)); string(fresh) != string(after) {
					t.Errorf("%s: a fresh session does not see the write\ngot:   %s\nwant:  %s", label, fresh, after)
				}
				if string(fresh) == string(got) {
					t.Errorf("%s: the write did not change the answer; the test proves nothing", label)
				}
			}
		}
	}
}

// concatTables stacks tables with one schema into a new table.
func concatTables(t *testing.T, tables ...*engine.Table) *engine.Table {
	t.Helper()
	out := engine.NewTable(tables[0].Schema())
	for _, tab := range tables {
		for r := 0; r < tab.NumRows(); r++ {
			if err := out.AppendRow(tab.Row(r)...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// jsonNear compares two JSON documents structurally, numbers within a
// relative tolerance.
func jsonNear(a, b []byte, tol float64) error {
	var x, y any
	if err := json.Unmarshal(a, &x); err != nil {
		return err
	}
	if err := json.Unmarshal(b, &y); err != nil {
		return err
	}
	return jsonNearAt(x, y, tol, "$")
}

func jsonNearAt(x, y any, tol float64, path string) error {
	switch xv := x.(type) {
	case float64:
		yv, ok := y.(float64)
		if !ok || math.Abs(xv-yv) > tol*(1+math.Abs(yv)) {
			return fmt.Errorf("%s: %v vs %v", path, x, y)
		}
	case []any:
		yv, ok := y.([]any)
		if !ok || len(xv) != len(yv) {
			return fmt.Errorf("%s: %v vs %v", path, x, y)
		}
		for i := range xv {
			if err := jsonNearAt(xv[i], yv[i], tol, fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	case map[string]any:
		yv, ok := y.(map[string]any)
		if !ok || len(xv) != len(yv) {
			return fmt.Errorf("%s: keys %v vs %v", path, x, y)
		}
		for k := range xv {
			if err := jsonNearAt(xv[k], yv[k], tol, path+"."+k); err != nil {
				return err
			}
		}
	default:
		if x != y {
			return fmt.Errorf("%s: %v vs %v", path, x, y)
		}
	}
	return nil
}
