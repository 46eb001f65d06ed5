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

// GlobalFunc is a global step executed on the Master over the workers'
// transfers (or their secure aggregate).
type GlobalFunc func(state any, localTransfers []Transfer, kwargs Kwargs) (Transfer, any, error)

// WorkerCtx gives a running local step controlled access to its hosting
// worker: loopback SQL against the local engine and the worker identity.
type WorkerCtx struct {
	WorkerID string
	UDF      *udf.Ctx
}

// Loopback runs SQL inside the worker's engine.
func (w *WorkerCtx) Loopback(sql string) (*engine.Table, error) { return w.UDF.Loopback(sql) }

// FuncRegistry holds the local and global steps of the installed algorithm
// library (every node in a MIP deployment has the same algorithms
// installed, so a process-wide default registry mirrors reality).
type FuncRegistry struct {
	mu      sync.Mutex
	locals  map[string]LocalFunc
	globals map[string]GlobalFunc
}

// NewFuncRegistry returns an empty registry.
func NewFuncRegistry() *FuncRegistry {
	return &FuncRegistry{
		locals:  make(map[string]LocalFunc),
		globals: make(map[string]GlobalFunc),
	}
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

// RegisterGlobal installs a global step.
func (r *FuncRegistry) RegisterGlobal(name string, fn GlobalFunc) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.globals[name]; ok {
		return fmt.Errorf("federation: global func %q already registered", name)
	}
	r.globals[name] = fn
	return nil
}

// MustRegisterLocal is RegisterLocal for package init blocks.
func (r *FuncRegistry) MustRegisterLocal(name string, fn LocalFunc) {
	if err := r.RegisterLocal(name, fn); err != nil {
		panic(err)
	}
}

// MustRegisterGlobal is RegisterGlobal for package init blocks.
func (r *FuncRegistry) MustRegisterGlobal(name string, fn GlobalFunc) {
	if err := r.RegisterGlobal(name, fn); err != nil {
		panic(err)
	}
}

// Local returns the named local step, or nil.
func (r *FuncRegistry) Local(name string) LocalFunc {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.locals[name]
}

// Global returns the named global step, or nil.
func (r *FuncRegistry) Global(name string) GlobalFunc {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.globals[name]
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

// RegisterGlobal installs a global step into the default registry.
func RegisterGlobal(name string, fn GlobalFunc) { DefaultRegistry.MustRegisterGlobal(name, fn) }
