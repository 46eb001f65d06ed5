// Package udf reproduces MIP's UDFGenerator: algorithm developers write
// procedural local-computation steps ("Python functions" in the paper, Go
// functions here) with declared input/output types; the generator JIT-wraps
// each step as a SQL UDF and executes it inside the data engine, so local
// steps benefit from vectorized, in-database execution. Loopback queries —
// SQL issued from inside a running UDF — handle multiple inputs and
// outputs, exactly as in the paper.
package udf

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"mip/internal/engine"
)

// Kind classifies a UDF input or output, mirroring MIP's udfgen decorator
// vocabulary.
type Kind int

// UDF I/O kinds.
const (
	Relation Kind = iota // a table (columns of the primary data)
	Tensor               // a numeric array with a shape
	Scalar               // a single value
	Transfer             // a value shipped between nodes
	State                // opaque node-local state, never shipped
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Relation:
		return "relation"
	case Tensor:
		return "tensor"
	case Scalar:
		return "scalar"
	case Transfer:
		return "transfer"
	case State:
		return "state"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IOSpec declares the type of one UDF input or output.
type IOSpec struct {
	Name   string
	Kind   Kind
	Schema engine.Schema // Relation only: expected columns (nil = any)
}

// Value is a runtime UDF argument or result. Exactly one field is
// populated, matching the IOSpec kind.
type Value struct {
	Table    *engine.Table // Relation
	Tensor   []float64     // Tensor (row-major)
	Shape    []int         // Tensor shape
	Scalar   any           // Scalar
	Transfer any           // Transfer, carried uninspected
	State    any           // State
}

// RelationValue wraps a table.
func RelationValue(t *engine.Table) Value { return Value{Table: t} }

// TensorValue wraps a numeric array.
func TensorValue(data []float64, shape ...int) Value { return Value{Tensor: data, Shape: shape} }

// ScalarValue wraps a single value.
func ScalarValue(v any) Value { return Value{Scalar: v} }

// TransferValue wraps a value shipped between nodes.
func TransferValue(v any) Value { return Value{Transfer: v} }

// StateValue wraps node-local state.
func StateValue(s any) Value { return Value{State: s} }

// Ctx is the execution context passed to a running UDF. Loopback lets the
// UDF issue SQL against the hosting engine mid-execution (MonetDB's
// "SQL loopback queries").
type Ctx struct {
	DB *engine.DB
	// Context scopes every loopback query: cancelling it aborts the
	// in-engine execution mid-batch (end-to-end query cancellation).
	Context context.Context
}

// Loopback executes SQL inside the engine hosting the UDF.
func (c *Ctx) Loopback(sql string) (*engine.Table, error) {
	return c.DB.QueryCtx(c.Context, sql)
}

// Func is the procedural body of a UDF.
type Func func(ctx *Ctx, args []Value) ([]Value, error)

// Def is a declared UDF: the procedural body plus its typed signature —
// the information MIP's Python decorator carries.
type Def struct {
	Name    string
	Doc     string
	Inputs  []IOSpec
	Outputs []IOSpec
	Body    Func
}

// Validate checks the definition is well-formed.
func (d *Def) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("udf: definition needs a name")
	}
	if d.Body == nil {
		return fmt.Errorf("udf %s: missing body", d.Name)
	}
	for _, o := range d.Outputs {
		if o.Kind == Relation && o.Name == "" {
			return fmt.Errorf("udf %s: relation outputs need names", d.Name)
		}
	}
	return nil
}

// Registry holds the declared UDFs of a node.
type Registry struct {
	mu   sync.RWMutex
	defs map[string]*Def
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{defs: make(map[string]*Def)}
}

// Register adds a definition; duplicate names are an error.
func (r *Registry) Register(d *Def) error {
	if err := d.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.defs[d.Name]; ok {
		return fmt.Errorf("udf: %q already registered", d.Name)
	}
	r.defs[d.Name] = d
	return nil
}

// MustRegister registers or panics; for package-init algorithm tables.
func (r *Registry) MustRegister(d *Def) {
	if err := r.Register(d); err != nil {
		panic(err)
	}
}

// Lookup returns the named definition, or nil.
func (r *Registry) Lookup(name string) *Def {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.defs[name]
}

// Names lists registered UDFs, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.defs))
	for n := range r.defs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// GenerateSQL renders the SQL that the UDF-to-SQL translation produces for
// a definition: a CREATE FUNCTION wrapper plus the invocation statement.
// The text documents what runs in the engine; Exec performs the equivalent
// natively.
func GenerateSQL(d *Def, inputTables []string, outputTable string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE OR REPLACE FUNCTION %s(", d.Name)
	for i, in := range d.Inputs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", in.Name, sqlTypeOf(in))
	}
	b.WriteString(")\nRETURNS TABLE(")
	for i, out := range d.Outputs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", out.Name, sqlTypeOf(out))
	}
	b.WriteString(")\nLANGUAGE NATIVE -- JIT-generated wrapper\n{ body: ")
	b.WriteString(d.Name)
	b.WriteString(" };\n")
	fmt.Fprintf(&b, "SELECT * FROM %s(", d.Name)
	for i, t := range inputTables {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t)
	}
	b.WriteString(")")
	if outputTable != "" {
		fmt.Fprintf(&b, " INTO %s", outputTable)
	}
	b.WriteString(";")
	return b.String()
}

func sqlTypeOf(s IOSpec) string {
	switch s.Kind {
	case Relation:
		if len(s.Schema) == 0 {
			return "TABLE(*)"
		}
		cols := make([]string, len(s.Schema))
		for i, c := range s.Schema {
			cols[i] = c.Name + " " + c.Type.String()
		}
		return "TABLE(" + strings.Join(cols, ", ") + ")"
	case Tensor:
		return "DOUBLE[]"
	case Scalar:
		return "DOUBLE"
	case Transfer:
		return "JSON"
	case State:
		return "STATE"
	}
	return "UNKNOWN"
}

// Exec runs a registered UDF inside the given engine. Relation arguments
// arrive resolved (Value.Table): the caller evaluates each relation once, so
// the body and any check the caller makes on the relation see the same rows.
type Exec struct {
	Registry *Registry
	DB       *engine.DB
}

// Call validates the inputs against the named UDF's signature — arity,
// every relation present, declared relation schemas — and invokes the body.
// ctx scopes the body's loopback queries: cancelling it aborts them at the
// next batch boundary.
func (e *Exec) Call(ctx context.Context, name string, args []Value) ([]Value, error) {
	d := e.Registry.Lookup(name)
	if d == nil {
		return nil, fmt.Errorf("udf: unknown function %q", name)
	}
	if len(args) != len(d.Inputs) {
		return nil, fmt.Errorf("udf %s: got %d arguments, want %d", name, len(args), len(d.Inputs))
	}
	for i, spec := range d.Inputs {
		if spec.Kind != Relation {
			continue
		}
		if args[i].Table == nil {
			return nil, fmt.Errorf("udf %s: relation input %q not provided", name, spec.Name)
		}
		if len(spec.Schema) > 0 && !args[i].Table.Schema().Equal(spec.Schema) {
			return nil, fmt.Errorf("udf %s: relation %q schema mismatch: got %v, want %v",
				name, spec.Name, args[i].Table.Schema().Names(), spec.Schema.Names())
		}
	}
	outs, err := d.Body(&Ctx{DB: e.DB, Context: ctx}, args)
	if err != nil {
		return nil, fmt.Errorf("udf %s: %w", name, err)
	}
	if len(outs) != len(d.Outputs) {
		return nil, fmt.Errorf("udf %s: body returned %d values, declared %d", name, len(outs), len(d.Outputs))
	}
	// Relation outputs are materialized as engine tables so downstream
	// steps can reference them by name (the "pointer to the actual data"
	// the paper describes).
	for i, spec := range d.Outputs {
		if spec.Kind == Relation && outs[i].Table != nil {
			e.DB.RegisterTable(spec.Name, outs[i].Table)
		}
	}
	return outs, nil
}
