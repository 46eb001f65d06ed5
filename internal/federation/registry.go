package federation

import (
	"fmt"
	"sort"
	"sync"

	"mip/internal/engine"
	"mip/internal/udf"
)

// LocalFunc is a local computation step: it runs on a Worker with access to
// the primary data (already filtered to the requested datasets/variables)
// and returns a transfer dict. The worker wraps it as a SQL UDF through the
// UDF generator before execution.
type LocalFunc func(wctx *WorkerCtx, data *engine.Table, kwargs Kwargs) (Transfer, error)

// WorkerCtx gives a running local step controlled access to its hosting
// worker: loopback SQL against the local engine and the worker identity.
type WorkerCtx struct {
	WorkerID string
	UDF      *udf.Ctx
}

// Loopback runs SQL inside the worker's engine.
func (w *WorkerCtx) Loopback(sql string) (*engine.Table, error) { return w.UDF.Loopback(sql) }

// FuncRegistry holds the local steps of the installed algorithm library
// (every node in a MIP deployment has the same algorithms installed, so a
// process-wide default registry mirrors reality). Global steps are the
// algorithm flow's own Go code between rounds.
type FuncRegistry struct {
	mu     sync.Mutex
	locals map[string]LocalFunc
}

// NewFuncRegistry returns an empty registry.
func NewFuncRegistry() *FuncRegistry {
	return &FuncRegistry{locals: make(map[string]LocalFunc)}
}

// RegisterLocal installs a local step.
func (r *FuncRegistry) RegisterLocal(name string, fn LocalFunc) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.locals[name]; ok {
		return fmt.Errorf("federation: local func %q already registered", name)
	}
	r.locals[name] = fn
	return nil
}

// MustRegisterLocal is RegisterLocal for package init blocks.
func (r *FuncRegistry) MustRegisterLocal(name string, fn LocalFunc) {
	if err := r.RegisterLocal(name, fn); err != nil {
		panic(err)
	}
}

// Local returns the named local step, or nil.
func (r *FuncRegistry) Local(name string) LocalFunc {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.locals[name]
}

// LocalNames lists registered local steps, sorted.
func (r *FuncRegistry) LocalNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.locals))
	for n := range r.locals {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DefaultRegistry is the process-wide algorithm library.
var DefaultRegistry = NewFuncRegistry()

// RegisterLocal installs a local step into the default registry.
func RegisterLocal(name string, fn LocalFunc) { DefaultRegistry.MustRegisterLocal(name, fn) }
