// Package algorithms implements the analysis library the paper's MIP
// integrates ("15+ algorithms for data analysis"): descriptive statistics,
// k-means, ANOVA one/two-way, CART, calibration belt, ID3, Kaplan-Meier,
// linear and logistic regression (plus cross-validated variants), naive
// Bayes (plus CV), Pearson correlation, PCA and the three t-tests.
//
// Every algorithm follows the paper's three-block structure: local
// computation steps (registered in the federation function registry and
// executed on the workers, inside the data engine), the flow (the Run
// method, orchestrating rounds of local steps and aggregation on the
// master), and the specification (name, parameters, variable constraints —
// what the dashboard renders as the algorithm form).
//
// Exactness: each algorithm aggregates additive sufficient statistics, so
// the federated result equals the pooled result up to floating-point
// noise; the *_test.go files assert this against pooled reference
// implementations, and the aggregation path (plain transfers vs SMPC) is
// switchable per master without touching algorithm code.
package algorithms

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"mip/internal/federation"
	"mip/internal/obs"
)

// Request is an experiment request: which datasets, which variables play
// the dependent (Y) and covariate (X) roles, an optional SQL filter, and
// algorithm parameters.
type Request struct {
	Datasets   []string       `json:"datasets"`
	Y          []string       `json:"y"`
	X          []string       `json:"x"`
	Filter     string         `json:"filter,omitempty"`
	Parameters map[string]any `json:"parameters,omitempty"`
}

// Param fetches a parameter with a default.
func (r Request) Param(key string, def any) any {
	if r.Parameters == nil {
		return def
	}
	if v, ok := r.Parameters[key]; ok {
		return v
	}
	return def
}

// ParamFloat fetches a numeric parameter.
func (r Request) ParamFloat(key string, def float64) float64 {
	switch v := r.Param(key, def).(type) {
	case float64:
		return v
	case int:
		return float64(v)
	case int64:
		return float64(v)
	}
	return def
}

// ParamInt fetches an integer parameter.
func (r Request) ParamInt(key string, def int) int {
	return int(r.ParamFloat(key, float64(def)))
}

// ParamString fetches a string parameter.
func (r Request) ParamString(key, def string) string {
	if v, ok := r.Param(key, def).(string); ok {
		return v
	}
	return def
}

// ParamStrings fetches a string-slice parameter ([]string or []any).
func (r Request) ParamStrings(key string) []string {
	switch v := r.Param(key, nil).(type) {
	case []string:
		return v
	case []any:
		out := make([]string, 0, len(v))
		for _, e := range v {
			if s, ok := e.(string); ok {
				out = append(out, s)
			}
		}
		return out
	}
	return nil
}

// Result is the JSON-able output of an algorithm run.
type Result map[string]any

// ParamSpec describes one dashboard-rendered parameter.
type ParamSpec struct {
	Name    string   `json:"name"`
	Label   string   `json:"label"`
	Type    string   `json:"type"` // int | real | string | enum
	Default any      `json:"default,omitempty"`
	Min     float64  `json:"min,omitempty"`
	Max     float64  `json:"max,omitempty"`
	Enum    []string `json:"enum,omitempty"`
	Doc     string   `json:"doc,omitempty"`
}

// VarSpec constrains the Y/X variable slots.
type VarSpec struct {
	Min   int      `json:"min"`   // minimum number of variables
	Max   int      `json:"max"`   // 0 = unlimited
	Types []string `json:"types"` // allowed CDE types
	Doc   string   `json:"doc,omitempty"`
}

// Spec is the algorithm specification block.
type Spec struct {
	Name       string      `json:"name"`
	Label      string      `json:"label"`
	Desc       string      `json:"desc"`
	Y          VarSpec     `json:"y"`
	X          VarSpec     `json:"x"`
	Parameters []ParamSpec `json:"parameters,omitempty"`
}

// Algorithm is one federated analysis method.
type Algorithm interface {
	Spec() Spec
	Run(sess *federation.Session, req Request) (Result, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Algorithm{}
)

// Register installs an algorithm (panics on duplicates; called from init).
func Register(a Algorithm) {
	regMu.Lock()
	defer regMu.Unlock()
	name := a.Spec().Name
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("algorithms: %q registered twice", name))
	}
	registry[name] = a
}

// Get returns the named algorithm, or nil.
func Get(name string) Algorithm {
	regMu.RLock()
	defer regMu.RUnlock()
	return registry[name]
}

var algLog = obs.Logger("algorithms")

// Run executes a on sess with structured, trace-correlated logging: one
// record per run carrying the algorithm name, datasets, duration and
// outcome, joined to the experiment trace when the session carries one.
// Platform entry points (the embedded platform and the API runner) route
// through it instead of calling a.Run directly. A panic in a is returned as
// an error naming the algorithm and the panic.
func Run(a Algorithm, sess *federation.Session, req Request) (res Result, err error) {
	l := algLog.With("algorithm", a.Spec().Name,
		"datasets", strings.Join(req.Datasets, ","))
	if tr := sess.Trace(); tr.TraceID != "" {
		l = obs.WithTrace(l, &tr)
	}
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("algorithms: %s panicked: %v", a.Spec().Name, p)
		}
		if err != nil {
			l.Error("algorithm failed", "seconds", time.Since(start).Seconds(), "err", err.Error())
			return
		}
		l.Info("algorithm done", "seconds", time.Since(start).Seconds(),
			"dropped_workers", strings.Join(sess.Dropped(), ","))
	}()
	return a.Run(sess, req)
}

// Names lists registered algorithms, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Specs lists all specifications, sorted by name.
func Specs() []Spec {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Spec, 0, len(registry))
	for _, a := range registry {
		out = append(out, a.Spec())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// requireVars validates the request against the spec's variable slots.
func requireVars(spec Spec, req Request) error {
	check := func(role string, vs VarSpec, vars []string) error {
		if len(vars) < vs.Min {
			return fmt.Errorf("algorithms: %s needs at least %d %s variable(s), got %d", spec.Name, vs.Min, role, len(vars))
		}
		if vs.Max > 0 && len(vars) > vs.Max {
			return fmt.Errorf("algorithms: %s accepts at most %d %s variable(s), got %d", spec.Name, vs.Max, role, len(vars))
		}
		return nil
	}
	if err := check("y", spec.Y, req.Y); err != nil {
		return err
	}
	return check("x", spec.X, req.X)
}
