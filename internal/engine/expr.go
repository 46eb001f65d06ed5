package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Expr is a scalar expression evaluated column-at-a-time over a table batch.
// Aggregate calls never appear inside Eval — the planner lifts them out.
type Expr interface {
	fmt.Stringer
}

// QuoteIdent renders an identifier so the SQL lexer reads it back verbatim:
// names matching [A-Za-z_][A-Za-z0-9_]* that are not reserved keywords pass
// through bare; anything else is double-quoted with embedded quotes doubled.
// Rendered SQL crosses the federation boundary (pushed-down WHERE clauses,
// per-part projections), so this must agree exactly with the lexer.
func QuoteIdent(s string) string {
	plain := s != ""
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
		case c >= '0' && c <= '9' && i > 0:
		default:
			plain = false
		}
		if !plain {
			break
		}
	}
	if plain && !sqlKeywords[strings.ToUpper(s)] {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// ColRef references a column by name.
type ColRef struct{ Name string }

func (e *ColRef) String() string {
	// Qualified references (alias.col, produced by join qualification)
	// render segment-wise so either half is quoted independently and the
	// whole re-parses as the same qualified name.
	if i := strings.IndexByte(e.Name, '.'); i > 0 && i < len(e.Name)-1 {
		return QuoteIdent(e.Name[:i]) + "." + QuoteIdent(e.Name[i+1:])
	}
	return QuoteIdent(e.Name)
}

// Lit is a literal constant. Null literals carry IsNull=true.
type Lit struct {
	Val    any
	IsNull bool
}

func (e *Lit) String() string {
	if e.IsNull {
		return "NULL"
	}
	switch v := e.Val.(type) {
	case string:
		return "'" + strings.ReplaceAll(v, "'", "''") + "'"
	case float64:
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Not producible by the parser; render best-effort.
			return fmt.Sprint(v)
		}
		s := strconv.FormatFloat(v, 'g', -1, 64)
		// An integral rendering like "5" would re-parse as an int64
		// literal; keep the literal a float across the round trip.
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	}
	return fmt.Sprint(e.Val)
}

// Unary is -x or NOT x.
type Unary struct {
	Op string
	X  Expr
}

func (e *Unary) String() string { return fmt.Sprintf("(%s %s)", e.Op, e.X) }

// Binary is an infix operation: arithmetic (+ - * / %), comparison
// (= <> < <= > >=), or logical (AND OR).
type Binary struct {
	Op   string
	L, R Expr
}

func (e *Binary) String() string { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }

// Call is a scalar function application.
type Call struct {
	Name string
	Args []Expr
}

func (e *Call) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Name, strings.Join(args, ", "))
}

// AggCall is an aggregate function application (sum, count, avg, min, max,
// stddev_samp, var_samp, corr, median, quantile). Star marks COUNT(*).
type AggCall struct {
	Name     string
	Args     []Expr
	Star     bool
	Distinct bool
}

func (e *AggCall) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return fmt.Sprintf("%s(%s%s)", e.Name, d, strings.Join(args, ", "))
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

func (e *IsNullExpr) String() string {
	if e.Not {
		return fmt.Sprintf("(%s IS NOT NULL)", e.X)
	}
	return fmt.Sprintf("(%s IS NULL)", e.X)
}

// InExpr is x [NOT] IN (v1, v2, ...).
type InExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

func (e *InExpr) String() string {
	items := make([]string, len(e.List))
	for i, a := range e.List {
		items[i] = a.String()
	}
	n := ""
	if e.Not {
		n = "NOT "
	}
	return fmt.Sprintf("(%s %sIN (%s))", e.X, n, strings.Join(items, ", "))
}

// CaseExpr is CASE WHEN c1 THEN v1 [WHEN ...] [ELSE e] END.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr
}

// CaseWhen is one WHEN/THEN arm.
type CaseWhen struct {
	Cond, Then Expr
}

func (e *CaseExpr) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range e.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if e.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", e.Else)
	}
	b.WriteString(" END")
	return b.String()
}

// children lists e's direct subexpressions in a fixed order: operands,
// arguments, the IN operand then its list, and each CASE arm's condition
// and value followed by the ELSE. Every structural walk over an expression
// goes through it (and mapChildren), so no walk can miss a node kind.
func children(e Expr) []Expr {
	switch t := e.(type) {
	case *Unary:
		return []Expr{t.X}
	case *Binary:
		return []Expr{t.L, t.R}
	case *Call:
		return t.Args
	case *AggCall:
		return t.Args
	case *IsNullExpr:
		return []Expr{t.X}
	case *InExpr:
		return append([]Expr{t.X}, t.List...)
	case *CaseExpr:
		out := make([]Expr, 0, 2*len(t.Whens)+1)
		for _, w := range t.Whens {
			out = append(out, w.Cond, w.Then)
		}
		if t.Else != nil {
			out = append(out, t.Else)
		}
		return out
	}
	return nil
}

// mapChildren returns a copy of e whose children (in children's order) are
// replaced by f of each; a leaf is returned as is. Expressions are never
// mutated in place: cached statements share them across queries.
func mapChildren(e Expr, f func(Expr) Expr) Expr {
	kids := children(e)
	if len(kids) == 0 {
		return e
	}
	m := make([]Expr, len(kids))
	for i, k := range kids {
		m[i] = f(k)
	}
	switch t := e.(type) {
	case *Unary:
		return &Unary{Op: t.Op, X: m[0]}
	case *Binary:
		return &Binary{Op: t.Op, L: m[0], R: m[1]}
	case *Call:
		return &Call{Name: t.Name, Args: m}
	case *AggCall:
		return &AggCall{Name: t.Name, Args: m, Star: t.Star, Distinct: t.Distinct}
	case *IsNullExpr:
		return &IsNullExpr{X: m[0], Not: t.Not}
	case *InExpr:
		return &InExpr{X: m[0], List: m[1:], Not: t.Not}
	case *CaseExpr:
		out := &CaseExpr{Whens: make([]CaseWhen, len(t.Whens))}
		for i := range t.Whens {
			out.Whens[i] = CaseWhen{Cond: m[2*i], Then: m[2*i+1]}
		}
		if t.Else != nil {
			out.Else = m[len(m)-1]
		}
		return out
	}
	return e
}

// walkExpr visits e and then, depth first, every subexpression for which
// fn returned true.
func walkExpr(e Expr, fn func(Expr) bool) {
	if fn(e) {
		for _, c := range children(e) {
			walkExpr(c, fn)
		}
	}
}

// HasAgg reports whether the expression contains an aggregate call.
func HasAgg(e Expr) bool {
	found := false
	walkExpr(e, func(x Expr) bool {
		_, agg := x.(*AggCall)
		found = found || agg
		return !found
	})
	return found
}

// Eval evaluates a scalar expression over every row of t, vectorized.
func Eval(e Expr, t *Table) (*Vector, error) {
	n := t.NumRows()
	switch x := e.(type) {
	case *ColRef:
		v := t.ColByName(x.Name)
		if v == nil {
			return nil, fmt.Errorf("engine: unknown column %q", x.Name)
		}
		return v, nil
	case *Lit:
		return evalLit(x, n)
	case *Unary:
		return evalUnary(x, t)
	case *Binary:
		return evalBinary(x, t)
	case *Call:
		return evalCall(x, t)
	case *IsNullExpr:
		inner, err := Eval(x.X, t)
		if err != nil {
			return nil, err
		}
		out := make([]bool, n)
		for i := 0; i < n; i++ {
			out[i] = inner.IsNull(i) != x.Not
		}
		return NewBoolVector(out, nil), nil
	case *InExpr:
		return evalIn(x, t)
	case *CaseExpr:
		return evalCase(x, t)
	case *AggCall:
		return nil, fmt.Errorf("engine: aggregate %s not allowed in scalar context", x.Name)
	}
	return nil, fmt.Errorf("engine: cannot evaluate %T", e)
}

func evalLit(x *Lit, n int) (*Vector, error) {
	if x.IsNull {
		v := NewVector(Float64)
		for i := 0; i < n; i++ {
			v.AppendNull()
		}
		return v, nil
	}
	switch val := x.Val.(type) {
	case float64:
		out := make([]float64, n)
		for i := range out {
			out[i] = val
		}
		return NewFloat64Vector(out, nil), nil
	case int64:
		out := make([]int64, n)
		for i := range out {
			out[i] = val
		}
		return NewInt64Vector(out, nil), nil
	case string:
		out := make([]string, n)
		for i := range out {
			out[i] = val
		}
		return NewStringVector(out, nil), nil
	case bool:
		out := make([]bool, n)
		for i := range out {
			out[i] = val
		}
		return NewBoolVector(out, nil), nil
	}
	return nil, fmt.Errorf("engine: unsupported literal %T", x.Val)
}

func evalUnary(x *Unary, t *Table) (*Vector, error) {
	inner, err := Eval(x.X, t)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "-":
		switch inner.Type() {
		case Int64:
			out := make([]int64, inner.Len())
			for i, v := range inner.Int64s() {
				out[i] = -v
			}
			return NewInt64Vector(out, inner.Valid()), nil
		default:
			f := inner.CastFloat64()
			out := make([]float64, f.Len())
			for i, v := range f.Float64s() {
				out[i] = -v
			}
			return NewFloat64Vector(out, f.Valid()), nil
		}
	case "NOT":
		if inner.Type() != Bool {
			return nil, fmt.Errorf("engine: NOT applied to %v", inner.Type())
		}
		out := make([]bool, inner.Len())
		for i, v := range inner.Bools() {
			out[i] = !v
		}
		return NewBoolVector(out, inner.Valid()), nil
	}
	return nil, fmt.Errorf("engine: unknown unary operator %q", x.Op)
}

func evalIn(x *InExpr, t *Table) (*Vector, error) {
	inner, err := Eval(x.X, t)
	if err != nil {
		return nil, err
	}
	n := inner.Len()
	out := make([]bool, n)
	valid := NewBitmap(n)
	// Collect literal values.
	type litval struct {
		s   string
		f   float64
		str bool
	}
	var lits []litval
	for _, le := range x.List {
		l, ok := le.(*Lit)
		if !ok {
			return nil, fmt.Errorf("engine: IN list must contain literals")
		}
		if l.IsNull {
			continue
		}
		switch v := l.Val.(type) {
		case string:
			lits = append(lits, litval{s: v, str: true})
		case float64:
			lits = append(lits, litval{f: v})
		case int64:
			lits = append(lits, litval{f: float64(v)})
		case bool:
			f := 0.0
			if v {
				f = 1
			}
			lits = append(lits, litval{f: f})
		}
	}
	var innerF []float64 // cast once, not per row
	if inner.Type() != String {
		innerF = inner.CastFloat64().Float64s()
	}
	for i := 0; i < n; i++ {
		if inner.IsNull(i) {
			valid.Set(i, false)
			continue
		}
		var hit bool
		switch inner.Type() {
		case String:
			s := inner.StringAt(i)
			for _, l := range lits {
				if l.str && l.s == s {
					hit = true
					break
				}
			}
		default:
			f := innerF[i]
			for _, l := range lits {
				if !l.str && l.f == f {
					hit = true
					break
				}
			}
		}
		out[i] = hit != x.Not
	}
	return NewBoolVector(out, valid), nil
}

func evalCase(x *CaseExpr, t *Table) (*Vector, error) {
	n := t.NumRows()
	conds := make([]*Vector, len(x.Whens))
	thens := make([]*Vector, len(x.Whens))
	for i, w := range x.Whens {
		c, err := Eval(w.Cond, t)
		if err != nil {
			return nil, err
		}
		if c.Type() != Bool {
			return nil, fmt.Errorf("engine: CASE condition must be boolean")
		}
		v, err := Eval(w.Then, t)
		if err != nil {
			return nil, err
		}
		conds[i], thens[i] = c, v
	}
	var els *Vector
	if x.Else != nil {
		v, err := Eval(x.Else, t)
		if err != nil {
			return nil, err
		}
		els = v
	}
	// Result type: first THEN branch decides.
	rt := thens[0].Type()
	out := NewVector(rt)
	if rt == String {
		// fresh dict
	}
	for i := 0; i < n; i++ {
		var src *Vector
		for k, c := range conds {
			if !c.IsNull(i) && c.Bools()[i] {
				src = thens[k]
				break
			}
		}
		if src == nil {
			src = els
		}
		if src == nil || src.IsNull(i) {
			out.AppendNull()
			continue
		}
		if err := out.AppendValue(src.Value(i)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
