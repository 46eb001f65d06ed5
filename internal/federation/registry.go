package federation

import (
	"context"
	"fmt"
	"sync"

	"mip/internal/engine"
)

// LocalFunc is a local computation step: it runs on a Worker with access to
// the primary data (already filtered to the requested datasets/variables)
// and returns a transfer dict. The worker calls it over the step's resolved
// relation; GenerateStepSQL renders the SQL UDF wrapper that call stands for.
type LocalFunc func(wctx *WorkerCtx, data *engine.Table, kwargs Kwargs) (Transfer, error)

// WorkerCtx gives a running local step controlled access to its hosting
// worker: loopback SQL against the local engine and the worker identity.
type WorkerCtx struct {
	WorkerID string
	db       *engine.DB
	ctx      context.Context
}

// Loopback runs SQL inside the worker's engine (MonetDB's "SQL loopback
// queries"), scoped by the step's context: cancelling the step aborts the
// query at the next batch boundary.
func (w *WorkerCtx) Loopback(sql string) (*engine.Table, error) { return w.db.QueryCtx(w.ctx, sql) }

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

// DefaultRegistry is the process-wide algorithm library.
var DefaultRegistry = NewFuncRegistry()

// RegisterLocal installs a local step into the default registry.
func RegisterLocal(name string, fn LocalFunc) { DefaultRegistry.MustRegisterLocal(name, fn) }
