package obs

import (
	"errors"
	"fmt"
	"testing"
)

func TestSpanTree(t *testing.T) {
	ts := NewTraceStore(16)
	root := ts.StartSpan("exp-1", "", "experiment")
	child := root.StartChild("step")
	grand := child.StartChild("worker")
	grand.SetAttr("rows", "10")
	grand.End()
	child.End()
	root.SetError(errors.New("boom"))
	root.End()

	tree := ts.Tree("exp-1")
	if len(tree) != 1 {
		t.Fatalf("roots = %d, want 1", len(tree))
	}
	r := tree[0]
	if r.Name != "experiment" || r.Err != "boom" {
		t.Fatalf("bad root: %+v", r.SpanData)
	}
	if len(r.Children) != 1 || r.Children[0].Name != "step" {
		t.Fatalf("bad children: %+v", r.Children)
	}
	g := r.Children[0].Children
	if len(g) != 1 || g[0].Name != "worker" || g[0].Attrs["rows"] != "10" {
		t.Fatalf("bad grandchildren: %+v", g)
	}
}

func TestNilSpanSafe(t *testing.T) {
	ts := NewTraceStore(16)
	s := ts.StartSpan("", "", "ignored") // empty trace id disables tracing
	if s != nil {
		t.Fatal("empty trace id should return nil span")
	}
	// All of these must be no-ops, not panics.
	s.SetAttr("k", "v")
	s.SetError(errors.New("x"))
	c := s.StartChild("child")
	if c != nil {
		t.Fatal("child of nil span should be nil")
	}
	s.End()
	if got := s.ID(); got != "" {
		t.Fatalf("nil span ID = %q", got)
	}
	if s.Ref() != nil {
		t.Fatal("nil span Ref should be nil")
	}
}

func TestImportDedup(t *testing.T) {
	ts := NewTraceStore(16)
	root := ts.StartSpan("exp-2", "", "experiment")
	root.End()
	// Re-importing the same span (the in-process worker publishes locally
	// AND ships spans back in the response envelope) must not duplicate.
	ts.Import([]SpanData{root.Data(), root.Data()})
	if n := len(ts.Spans("exp-2")); n != 1 {
		t.Fatalf("spans after duplicate import = %d, want 1", n)
	}
}

func TestImportForeignSpans(t *testing.T) {
	ts := NewTraceStore(16)
	root := ts.StartSpan("exp-3", "", "experiment")
	root.End()
	remote := SpanData{TraceID: "exp-3", SpanID: "beef-000001", Parent: root.ID(), Name: "exec step"}
	ts.Import([]SpanData{remote})
	tree := ts.Tree("exp-3")
	if len(tree) != 1 || len(tree[0].Children) != 1 || tree[0].Children[0].Name != "exec step" {
		t.Fatalf("imported span not grafted under root: %+v", tree)
	}
}

func TestTraceStoreEviction(t *testing.T) {
	ts := NewTraceStore(2)
	for i := 0; i < 3; i++ {
		s := ts.StartSpan(fmt.Sprintf("exp-%d", i), "", "experiment")
		s.End()
	}
	if got := ts.Spans("exp-0"); got != nil {
		t.Fatalf("oldest trace should be evicted, got %v", got)
	}
	if got := ts.Spans("exp-2"); len(got) != 1 {
		t.Fatalf("newest trace missing: %v", got)
	}
}
