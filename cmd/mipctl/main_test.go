package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"mip/internal/algorithms"
	"mip/internal/api"
	"mip/internal/catalogue"
	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/obs"
	"mip/internal/queue"
	"mip/internal/synth"
)

// stuckPart parks a merge-part query until its context dies, so one
// statement stays in the active-query registry while the test looks at it.
type stuckPart struct{ started chan struct{} }

func (p *stuckPart) PartName() string                    { return "stuck" }
func (p *stuckPart) Query(string) (*engine.Table, error) { return nil, context.Canceled }
func (p *stuckPart) QueryCtx(ctx context.Context, _ string) (*engine.Table, error) {
	close(p.started)
	<-ctx.Done()
	return nil, context.Cause(ctx)
}

// capture returns what f prints to standard output.
func capture(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		out, _ := io.ReadAll(r)
		done <- string(out)
	}()
	f()
	os.Stdout = old
	w.Close()
	return <-done
}

// TestPrintersRenderEveryServerField feeds each printer the JSON the real
// handler emits and then, field by field, changes one value in that document
// and renders it again: output that does not change means the CLI drops the
// field. Every field of the shared response types must be rendered or named
// in skipped with the reason — the drift that mipctl's own copies of these
// structs allowed (they had silently lost WindowStats.Errors, the tenants'
// rows in/out and verdicts, and the audit records' query ids).
func TestPrintersRenderEveryServerField(t *testing.T) {
	skipped := map[string]string{
		"QueryRecord.Kind":    "the slow log holds engine statements only",
		"QueryRecord.Vectors": "an engine-internal volume; rows are shown",
		"QueryRecord.OpNanos": "the plan lines carry each operator's time",
		"QueryInfo.Start":     "shown as the AGE column",
		"AuditRecord.Prev":    "the server verified the links; the head is shown",
		"AuditRecord.Hash":    "the server verified the links; the head is shown",
		"TraceResponse.Spans": "the tree holds the same spans",
		"SpanData.TraceID":    "shown once, in the header",
		"SpanData.SpanID":     "nesting shows the structure",
		"SpanData.Parent":     "nesting shows the structure",
		"SpanData.Start":      "the duration is shown",
		"SpanData.End":        "the duration is shown",
	}

	// A two-hospital platform behind the real handlers.
	var clients []federation.WorkerClient
	for i := 0; i < 2; i++ {
		tab, err := synth.Generate(synth.Spec{Dataset: "edsd", Rows: 150, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		db := engine.NewDB()
		db.RegisterTable(federation.DataTable, tab)
		clients = append(clients, federation.NewWorker(fmt.Sprintf("w%d", i), db))
	}
	m, err := federation.NewMaster(clients, nil, federation.Security{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	runner := queue.NewRunner(queue.NewBroker(0, 0), 2)
	t.Cleanup(runner.Close)
	srv := api.NewServer(m, catalogue.Default(), runner)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	oldSlow := obs.DefaultSlowLog
	obs.DefaultSlowLog = obs.NewSlowLog(64, time.Nanosecond)
	defer func() { obs.DefaultSlowLog = oldSlow }()

	// Activity for every endpoint: an attributed experiment (trace, tenants,
	// audit, slow log) and a statement parked in the registry (top).
	tenant := fmt.Sprintf("printers-%d", time.Now().UnixNano())
	var exp api.Experiment
	req := api.ExperimentRequest{Algorithm: "descriptive_stats", Tenant: tenant,
		Request: algorithms.Request{Datasets: []string{"edsd"}, Y: []string{"lefthippocampus"}}}
	if err := json.Unmarshal(call(http.MethodPost, ts.URL+"/experiments", "", req, 201), &exp); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if final, err := srv.WaitForExperiment(ctx, exp.UUID); err != nil || final.Status != "success" {
		t.Fatalf("experiment: %v %+v", err, final)
	}
	part := &stuckPart{started: make(chan struct{})}
	stuck := engine.NewDB()
	stuck.RegisterMerge("slow", &engine.MergeTable{
		Schema: engine.Schema{{Name: "x", Type: engine.Float64}}, TableName: "slow", Parts: []engine.Part{part},
	})
	qctx, kill := context.WithCancel(engine.WithQueryAttribution(context.Background(),
		engine.Attribution{Tenant: tenant, Job: exp.UUID, Datasets: []string{"edsd"}}))
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		stuck.QueryCtx(qctx, `SELECT count(*) AS n FROM slow`)
	}()
	<-part.started
	defer func() { kill(); <-finished }()

	for _, tc := range []struct {
		name, path string
		doc        any // decoded into, perturbed, re-encoded
		print      func([]byte)
	}{
		{"slow", "/queries/slow", &api.SlowQueriesResponse{}, printSlow},
		{"top", "/queries/active", &api.ActiveQueriesResponse{}, func(b []byte) { printTop(b, time.Second) }},
		{"tenants", "/tenants", &api.TenantsResponse{}, printTenants},
		{"audit", "/audit?tenant=" + tenant, &api.AuditResponse{}, printAudit},
		{"trace", "/experiments/" + exp.UUID + "/trace", &api.TraceResponse{}, printTrace},
	} {
		if err := json.Unmarshal(call(http.MethodGet, ts.URL+tc.path, "", nil, 200), tc.doc); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		render := func() string {
			body, err := json.Marshal(tc.doc)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			out := capture(t, func() { tc.print(body) })
			if tc.name == "top" { // the header line carries the wall clock
				_, out, _ = strings.Cut(out, "\n")
			}
			return out
		}
		base := render()
		checked := map[string]bool{} // one occurrence of a field settles it
		perturb(reflect.ValueOf(tc.doc).Elem(), "", skipped, func() {}, func(field string) {
			if checked[field] {
				return
			}
			checked[field] = true
			if render() == base {
				t.Errorf("mipctl %s does not render %s (render it, or add it to skipped with the reason)", tc.name, field)
			}
		})
		if len(checked) < 5 {
			t.Errorf("mipctl %s: the server's response held only %d fields to check:\n%s", tc.name, len(checked), base)
		}
	}
}

// perturb visits every leaf value under v except the skipped fields,
// changes it, calls check with the leaf's Type.Field name, and restores it.
// sync pushes a changed copy back into the map it came from (map elements
// are not addressable).
func perturb(v reflect.Value, field string, skipped map[string]string, sync func(), check func(field string)) {
	leaf := func(changed reflect.Value) {
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		v.Set(changed.Convert(v.Type()))
		sync()
		check(field)
		v.Set(old)
		sync()
	}
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			perturb(v.Elem(), field, skipped, sync, check)
		}
	case reflect.Struct:
		if t, ok := v.Interface().(time.Time); ok {
			leaf(reflect.ValueOf(t.Add(1000*time.Hour + 7*time.Minute)))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			name := v.Type().Name() + "." + f.Name
			if _, skip := skipped[name]; f.Anonymous {
				perturb(v.Field(i), field, skipped, sync, check)
			} else if f.IsExported() && !skip {
				perturb(v.Field(i), name, skipped, sync, check)
			}
		}
	case reflect.Slice, reflect.Array:
		if k := v.Type().Elem().Kind(); k == reflect.Struct || k == reflect.Pointer {
			for i := 0; i < v.Len(); i++ {
				perturb(v.Index(i), field, skipped, sync, check)
			}
		} else if v.Kind() == reflect.Array {
			perturb(v.Index(0), field, skipped, sync, check)
		} else {
			leaf(reflect.Append(v, reflect.ValueOf("zz-sentinel").Convert(v.Type().Elem())))
		}
	case reflect.Map:
		if v.Type().Elem().Kind() == reflect.Struct {
			for _, k := range v.MapKeys() {
				cp := reflect.New(v.Type().Elem()).Elem()
				cp.Set(v.MapIndex(k))
				perturb(cp, field, skipped, func() { v.SetMapIndex(k, cp); sync() }, check)
			}
			return
		}
		grown := reflect.MakeMap(v.Type())
		for _, k := range v.MapKeys() {
			grown.SetMapIndex(k, v.MapIndex(k))
		}
		one := reflect.New(v.Type().Elem()).Elem()
		if one.Kind() == reflect.String {
			one.SetString("zz-sentinel")
		} else {
			one.SetInt(7777777)
		}
		grown.SetMapIndex(reflect.ValueOf("zz-key"), one)
		leaf(grown)
	case reflect.String:
		leaf(reflect.ValueOf("zz-sentinel" + v.String()))
	case reflect.Bool:
		leaf(reflect.ValueOf(!v.Bool()))
	case reflect.Int, reflect.Int64:
		leaf(reflect.ValueOf(v.Int() + 7777777))
	case reflect.Uint64:
		leaf(reflect.ValueOf(v.Uint() + 7777777))
	case reflect.Float64:
		leaf(reflect.ValueOf(v.Float() + 4242.4242))
	default:
		panic("perturb: unhandled kind " + v.Kind().String() + " at " + field)
	}
}
