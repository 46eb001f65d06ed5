package engine

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// execSelect runs a parsed SELECT over an input table: it plans the stage
// list for the statement and the input's row count (planSelect — the same
// list EXPLAIN renders) and walks it. Top-k, aggregation and every stage
// hosting a WHERE run inside the one morsel loop (forMorsels), fanned out
// across ec's worker pool; LIMIT stays a serial tail. qs (optional, may be
// nil) accumulates rows/vectors touched and grows the plan tree one node
// per stage (the scan/join/merge nodes below the first stage are planted by
// db.run and the merge table before this runs).
func execSelect(ec *ExecContext, st *SelectStmt, input *Table, qs *QueryStats) (*Table, error) {
	qs.RowsScanned += input.NumRows()
	qs.Vectors += len(input.Schema())
	ec.addRows(input.NumRows())
	out, err := ec.runStages(st, ec.planSelect(st, input.NumRows()), input, qs)
	if err != nil {
		return nil, err
	}
	qs.RowsOut += out.NumRows()
	qs.Vectors += len(out.Schema())
	return out, nil
}

// runStages walks a stage list over t, one profiled plan node per stage.
// A fused filter stage does no work of its own: it hands its predicate and
// plan node to the stage that follows, whose morsel loop evaluates it.
func (ec *ExecContext) runStages(st *SelectStmt, stages []selectStage, t *Table, qs *QueryStats) (*Table, error) {
	var where Expr        // fused WHERE awaiting the next stage's morsel loop
	var fnode *PlanNode   // ... and its plan node
	var outNames []string // output columns, from the extend stage to the final projection
	for _, s := range stages {
		if err := ec.interrupted(); err != nil {
			return nil, err
		}
		sg := qs.beginStage(s.op, s.detail, t.NumRows())
		sg.setParallelism(s.par)
		node := sg.node
		node.Fused = s.fused
		if s.kind == stageFilter && s.fused {
			where, fnode = st.Where, node
			continue
		}
		sg.fuseFilter(fnode)
		var err error
		switch s.kind {
		case stageFilter:
			t, err = ec.filterTable(t, st.Where, node)
		case stageAggregate:
			t, err = execAggregate(ec, st, t, node, where, fnode)
		case stageTopK:
			t, err = execTopK(ec, st, t, node, where, fnode)
		case stageExtend:
			t, outNames, err = execExtend(ec, st, t, node, where, fnode)
		case stageOrder:
			t, err = ec.sortTable(st.OrderBy, t, sg)
		case stageProjectNames:
			t, err = projectNames(t, outNames)
		case stageProject:
			if !st.Star { // SELECT * passes its input through, zero-copy
				t, err = execProject(ec, st, t, node, where, fnode)
			}
		case stageLimit:
			t = execLimit(st, t)
		}
		if err != nil {
			return nil, err
		}
		where, fnode = nil, nil
		sg.end(t)
	}
	// Morsel loops charge their output at the terminal concat, after the
	// last in-loop interrupt check; settle any resulting hard-limit or
	// deadline cancellation before declaring the statement done.
	if err := ec.interrupted(); err != nil {
		return nil, err
	}
	return t, nil
}

// topkMaxCandidates bounds k'=limit+offset for the top-k operator: past
// this, per-morsel candidate sets stop being "bounded" in any useful sense
// and the full sort path is used instead.
const topkMaxCandidates = 1 << 16

// execTopK implements ORDER BY ... LIMIT k without a full sort: every
// morsel sorts its own extended rows and keeps only its first
// k'=limit+offset; the candidates are concatenated in morsel order and
// re-sorted. A row outside its morsel's first k' has ≥ k' rows ahead of it
// globally, so the merged first k' equal the full sort's first k' —
// including tie order, because ties break on row index within a morsel and
// the concat preserves morsel order.
func execTopK(ec *ExecContext, st *SelectStmt, t *Table, node *PlanNode, where Expr, fnode *PlanNode) (*Table, error) {
	kPrime := st.Limit + st.Offset
	extEmpty, outNames, err := extendWithProjection(st, t.Slice(0, 0))
	if err != nil {
		return nil, err
	}
	// best keeps rows [lo, hi) of ext's sorted order. A morsel's rows are a
	// single run sorted on the morsel's own goroutine; only the final pass
	// over the merged candidates can span runs and fan out.
	best := func(ext *Table, lo, hi int) (*Table, error) {
		keys, err := orderKeys(st.OrderBy, ext)
		if err != nil {
			return nil, err
		}
		perm, err := ec.sortPerm(keys, ext.NumRows(), nil)
		if err != nil {
			return nil, err
		}
		return ext.Gather(perm[min(lo, len(perm)):min(hi, len(perm))]), nil
	}
	merged, err := ec.mapMorsels(t, where, fnode, extEmpty.Schema(), node, func(part *Table) (*Table, error) {
		ext, _, err := extendWithProjection(st, part)
		if err != nil {
			return nil, err
		}
		return best(ext, 0, kPrime)
	})
	if err != nil {
		return nil, err
	}
	top, err := best(merged, st.Offset, kPrime)
	if err != nil {
		return nil, err
	}
	out, err := projectNames(top, outNames)
	if err != nil {
		return nil, err
	}
	ec.charge(out.ByteSize())
	return out, nil
}

// execExtend evaluates the extended projection (see extendWithProjection)
// row-wise (mapRows). ORDER BY may reference source columns that the
// projection drops (SELECT id ... ORDER BY age) as well as projection
// aliases, so the sort runs over a table carrying both; outNames is what
// the final projection keeps.
func execExtend(ec *ExecContext, st *SelectStmt, t *Table, node *PlanNode, where Expr, fnode *PlanNode) (*Table, []string, error) {
	extEmpty, outNames, err := extendWithProjection(st, t.Slice(0, 0))
	if err != nil {
		return nil, nil, err
	}
	ext, err := ec.mapRows(t, where, fnode, extEmpty.Schema(), node, func(part *Table) (*Table, error) {
		ext, _, err := extendWithProjection(st, part)
		return ext, err
	})
	return ext, outNames, err
}

// execProject evaluates the select items row-wise (mapRows).
func execProject(ec *ExecContext, st *SelectStmt, t *Table, node *PlanNode, where Expr, fnode *PlanNode) (*Table, error) {
	schema, _, err := evalItems(st, t.Slice(0, 0))
	if err != nil {
		return nil, err
	}
	return ec.mapRows(t, where, fnode, schema, node, func(part *Table) (*Table, error) {
		schema, cols, err := evalItems(st, part)
		if err != nil {
			return nil, err
		}
		return NewTableFromVectors(schema, cols)
	})
}

// evalItems evaluates the select items over t into output columns.
func evalItems(st *SelectStmt, t *Table) (Schema, []*Vector, error) {
	schema := make(Schema, len(st.Items))
	cols := make([]*Vector, len(st.Items))
	for i, it := range st.Items {
		v, err := Eval(it.Expr, t)
		if err != nil {
			return nil, nil, err
		}
		name := it.Alias
		if name == "" {
			name = exprName(it.Expr)
		}
		schema[i] = ColumnDef{Name: name, Type: v.Type()}
		cols[i] = v
	}
	return schema, cols, nil
}

// extendWithProjection evaluates the select items over t and returns a
// table holding the projected columns first (under their output names)
// followed by the source columns that do not collide, plus the list of
// output column names in order.
func extendWithProjection(st *SelectStmt, t *Table) (*Table, []string, error) {
	if st.Star {
		return t, t.Schema().Names(), nil
	}
	schema, cols, err := evalItems(st, t)
	if err != nil {
		return nil, nil, err
	}
	outNames := schema.Names()
	taken := map[string]bool{}
	for _, n := range outNames {
		taken[strings.ToLower(n)] = true
	}
	for i, c := range t.Schema() {
		if !taken[strings.ToLower(c.Name)] {
			schema = append(schema, c)
			cols = append(cols, t.Col(i))
		}
	}
	ext, err := NewTableFromVectors(schema, cols)
	return ext, outNames, err
}

// projectNames selects the named columns in order.
func projectNames(t *Table, names []string) (*Table, error) {
	schema := make(Schema, len(names))
	cols := make([]*Vector, len(names))
	for i, n := range names {
		idx := t.Schema().ColIndex(n)
		if idx < 0 {
			return nil, fmt.Errorf("engine: internal: lost column %q", n)
		}
		schema[i] = t.Schema()[idx]
		cols[i] = t.Col(idx)
	}
	return NewTableFromVectors(schema, cols)
}

func exprName(e Expr) string {
	if c, ok := e.(*ColRef); ok {
		return c.Name
	}
	return strings.ToLower(e.String())
}

func execLimit(st *SelectStmt, t *Table) *Table {
	n := t.NumRows()
	start := st.Offset
	if start > n {
		start = n
	}
	end := n
	if st.Limit >= 0 && start+st.Limit < n {
		end = start + st.Limit
	}
	if start == 0 && end == n {
		return t
	}
	sel := make([]int32, 0, end-start)
	for i := start; i < end; i++ {
		sel = append(sel, int32(i))
	}
	return t.Gather(sel)
}

// --- aggregation ---

// aggState accumulates one aggregate across groups.
type aggState struct {
	call *AggCall
	// per-group state
	count    []int64
	sum      []float64
	sum2     []float64
	minF     []float64
	maxF     []float64
	minS     []string
	maxS     []string
	seenMM   []bool // min/max initialized
	sumY     []float64
	sumXY    []float64
	sumY2    []float64
	vals     [][]float64  // for median/quantile
	distinct *distinctSet // COUNT(DISTINCT ...): typed (group, value) set
	qarg     float64      // quantile fraction
	strMM    bool         // string-typed min/max
}

// aggArgs evaluates an aggregate call's arguments over t in the form the
// accumulators (and the spill run files) hold them: quantile's literal
// fraction dropped, numeric arguments viewed as float64.
func aggArgs(call *AggCall, t *Table) ([]*Vector, error) {
	args := call.Args
	if call.Name == "quantile" && len(args) == 2 {
		args = args[:1] // the fraction is read from the AST, not per row
	}
	vecs := make([]*Vector, len(args))
	for i, a := range args {
		v, err := Eval(a, t)
		if err != nil {
			return nil, err
		}
		if v.Type() != String {
			v = v.CastFloat64()
		}
		vecs[i] = v
	}
	return vecs, nil
}

// newAggState sizes the accumulators of one aggregate call for the given
// number of groups; args are aggArgs vectors (only their types matter).
func newAggState(call *AggCall, groups int, args []*Vector) (*aggState, error) {
	s := &aggState{call: call}
	name := call.Name
	switch name {
	case "count":
		s.count = make([]int64, groups)
		if call.Distinct {
			s.distinct = newDistinctSet()
		}
	case "sum", "avg", "stddev_samp", "stddev", "var_samp", "variance":
		s.count = make([]int64, groups)
		s.sum = make([]float64, groups)
		s.sum2 = make([]float64, groups)
	case "min", "max":
		if len(args) == 1 && args[0].Type() == String {
			s.strMM = true
			s.minS = make([]string, groups)
			s.maxS = make([]string, groups)
		} else {
			s.minF = make([]float64, groups)
			s.maxF = make([]float64, groups)
		}
		s.seenMM = make([]bool, groups)
		s.count = make([]int64, groups)
	case "corr":
		if len(call.Args) != 2 {
			return nil, fmt.Errorf("engine: corr takes 2 arguments")
		}
		s.count = make([]int64, groups)
		s.sum = make([]float64, groups)
		s.sumY = make([]float64, groups)
		s.sum2 = make([]float64, groups)
		s.sumY2 = make([]float64, groups)
		s.sumXY = make([]float64, groups)
	case "median", "quantile":
		s.count = make([]int64, groups)
		s.vals = make([][]float64, groups)
		s.qarg = 0.5
		if name == "quantile" {
			if len(call.Args) != 2 {
				return nil, fmt.Errorf("engine: quantile takes (expr, fraction)")
			}
			lit, ok := call.Args[1].(*Lit)
			if !ok {
				return nil, fmt.Errorf("engine: quantile fraction must be a literal")
			}
			switch f := lit.Val.(type) {
			case float64:
				s.qarg = f
			case int64:
				s.qarg = float64(f)
			default:
				return nil, fmt.Errorf("engine: bad quantile fraction")
			}
		}
	default:
		return nil, fmt.Errorf("engine: unknown aggregate %q", name)
	}
	return s, nil
}

// observeAll folds every row into the per-group accumulators. groupOf may
// be nil (single group). The moment-style aggregates get a branch-light
// fast path over the raw float payload — the engine's vectorized execution
// the paper leans on.
func (s *aggState) observeAll(groupOf []int, args []*Vector, n int) {
	gOf := func(row int) int {
		if groupOf == nil {
			return 0
		}
		return groupOf[row]
	}
	switch s.call.Name {
	case "sum", "avg", "stddev_samp", "stddev", "var_samp", "variance":
		if len(args) == 0 {
			return
		}
		xs := args[0].Float64s()
		valid := args[0].Valid()
		if groupOf == nil && valid == nil {
			// Hot path: single group, no NULLs — tight loop.
			var cnt int64
			var sum, sum2 float64
			for _, x := range xs {
				cnt++
				sum += x
				sum2 += x * x
			}
			s.count[0] += cnt
			s.sum[0] += sum
			s.sum2[0] += sum2
			return
		}
		for row := 0; row < n; row++ {
			if !valid.Get(row) {
				continue
			}
			g := gOf(row)
			x := xs[row]
			s.count[g]++
			s.sum[g] += x
			s.sum2[g] += x * x
		}
		return
	case "count":
		if s.call.Star {
			if groupOf == nil {
				s.count[0] += int64(n)
				return
			}
			for row := 0; row < n; row++ {
				s.count[groupOf[row]]++
			}
			return
		}
		if !s.call.Distinct && len(args) > 0 {
			valid := args[0].Valid()
			if valid == nil {
				if groupOf == nil {
					s.count[0] += int64(n)
					return
				}
				for row := 0; row < n; row++ {
					s.count[groupOf[row]]++
				}
				return
			}
			for row := 0; row < n; row++ {
				if valid.Get(row) {
					s.count[gOf(row)]++
				}
			}
			return
		}
		if s.call.Distinct && len(args) > 0 {
			s.observeDistinct(groupOf, args[0], n)
			return
		}
	}
	for row := 0; row < n; row++ {
		s.observe(gOf(row), args, row)
	}
}

func (s *aggState) observe(g int, args []*Vector, row int) {
	if s.call.Star {
		s.count[g]++
		return
	}
	if len(args) == 0 {
		return
	}
	if args[0].IsNull(row) {
		return
	}
	switch s.call.Name {
	case "count":
		s.count[g]++
	case "sum", "avg", "stddev_samp", "stddev", "var_samp", "variance":
		x := args[0].Float64s()[row]
		s.count[g]++
		s.sum[g] += x
		s.sum2[g] += x * x
	case "min", "max":
		s.count[g]++
		if s.strMM {
			x := args[0].StringAt(row)
			if !s.seenMM[g] {
				s.minS[g], s.maxS[g], s.seenMM[g] = x, x, true
				return
			}
			if x < s.minS[g] {
				s.minS[g] = x
			}
			if x > s.maxS[g] {
				s.maxS[g] = x
			}
			return
		}
		x := args[0].Float64s()[row]
		if !s.seenMM[g] {
			s.minF[g], s.maxF[g], s.seenMM[g] = x, x, true
			return
		}
		if x < s.minF[g] {
			s.minF[g] = x
		}
		if x > s.maxF[g] {
			s.maxF[g] = x
		}
	case "corr":
		if args[1].IsNull(row) {
			return
		}
		x, y := args[0].Float64s()[row], args[1].Float64s()[row]
		s.count[g]++
		s.sum[g] += x
		s.sumY[g] += y
		s.sum2[g] += x * x
		s.sumY2[g] += y * y
		s.sumXY[g] += x * y
	case "median", "quantile":
		s.count[g]++
		s.vals[g] = append(s.vals[g], args[0].Float64s()[row])
	}
}

// observeDistinct folds a morsel into a COUNT(DISTINCT ...) accumulator:
// the value column is hashed once by the typed kernels, then each non-NULL
// row probes the (group, value) set — no per-row key rendering.
func (s *aggState) observeDistinct(groupOf []int, v *Vector, n int) {
	src := s.distinct.addSource(v)
	hashes := getHashBuf(n)
	hashKeyCols([]*Vector{v}, n, hashes)
	for row := 0; row < n; row++ {
		if v.IsNull(row) {
			continue
		}
		g := 0
		if groupOf != nil {
			g = groupOf[row]
		}
		if s.distinct.insert(hashes[row], int32(g), src, int32(row)) {
			s.count[g]++
		}
	}
	putHashBuf(hashes)
}

// result materializes the aggregate's output column.
func (s *aggState) result(groups int) *Vector {
	switch s.call.Name {
	case "count":
		out := make([]int64, groups)
		copy(out, s.count)
		return NewInt64Vector(out, nil)
	case "sum":
		return s.floatResult(groups, func(g int) (float64, bool) {
			if s.count[g] == 0 {
				return 0, false
			}
			return s.sum[g], true
		})
	case "avg":
		return s.floatResult(groups, func(g int) (float64, bool) {
			if s.count[g] == 0 {
				return 0, false
			}
			return s.sum[g] / float64(s.count[g]), true
		})
	case "stddev_samp", "stddev", "var_samp", "variance":
		return s.floatResult(groups, func(g int) (float64, bool) {
			n := float64(s.count[g])
			if n < 2 {
				return 0, false
			}
			v := (s.sum2[g] - s.sum[g]*s.sum[g]/n) / (n - 1)
			if v < 0 {
				v = 0
			}
			if s.call.Name == "stddev_samp" || s.call.Name == "stddev" {
				return math.Sqrt(v), true
			}
			return v, true
		})
	case "min", "max":
		if s.strMM {
			out := NewVector(String)
			for g := 0; g < groups; g++ {
				if !s.seenMM[g] {
					out.AppendNull()
					continue
				}
				if s.call.Name == "min" {
					out.AppendString(s.minS[g])
				} else {
					out.AppendString(s.maxS[g])
				}
			}
			return out
		}
		return s.floatResult(groups, func(g int) (float64, bool) {
			if !s.seenMM[g] {
				return 0, false
			}
			if s.call.Name == "min" {
				return s.minF[g], true
			}
			return s.maxF[g], true
		})
	case "corr":
		return s.floatResult(groups, func(g int) (float64, bool) {
			n := float64(s.count[g])
			if n < 2 {
				return 0, false
			}
			cov := s.sumXY[g] - s.sum[g]*s.sumY[g]/n
			vx := s.sum2[g] - s.sum[g]*s.sum[g]/n
			vy := s.sumY2[g] - s.sumY[g]*s.sumY[g]/n
			if vx <= 0 || vy <= 0 {
				return 0, false
			}
			return cov / math.Sqrt(vx*vy), true
		})
	case "median", "quantile":
		return s.floatResult(groups, func(g int) (float64, bool) {
			if len(s.vals[g]) == 0 {
				return 0, false
			}
			sorted := append([]float64(nil), s.vals[g]...)
			sort.Float64s(sorted)
			return quantileSorted(sorted, s.qarg), true
		})
	}
	return nil
}

func (s *aggState) floatResult(groups int, f func(int) (float64, bool)) *Vector {
	out := make([]float64, groups)
	valid := NewBitmap(groups)
	for g := 0; g < groups; g++ {
		v, ok := f(g)
		if !ok {
			valid.Set(g, false)
			out[g] = math.NaN()
			continue
		}
		out[g] = v
	}
	return NewFloat64Vector(out, valid)
}

// quantileSorted is a type-7 quantile over a sorted slice (mirrors
// stats.QuantileSorted; duplicated to keep the engine dependency-free).
func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return s[n-1]
	}
	if lo < 0 {
		return s[0]
	}
	frac := h - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// rewriteAgg replaces aggregate calls and group-key expressions inside e
// with references to the synthetic columns of the intermediate table.
func rewriteAgg(e Expr, keys map[string]string, aggs *[]*AggCall, aggCols map[string]string) Expr {
	if k, ok := keys[e.String()]; ok {
		return &ColRef{Name: k}
	}
	switch t := e.(type) {
	case *AggCall:
		sig := t.String()
		if col, ok := aggCols[sig]; ok {
			return &ColRef{Name: col}
		}
		col := fmt.Sprintf("$agg%d", len(*aggs))
		aggCols[sig] = col
		*aggs = append(*aggs, t)
		return &ColRef{Name: col}
	case *Unary:
		return &Unary{Op: t.Op, X: rewriteAgg(t.X, keys, aggs, aggCols)}
	case *Binary:
		return &Binary{Op: t.Op, L: rewriteAgg(t.L, keys, aggs, aggCols), R: rewriteAgg(t.R, keys, aggs, aggCols)}
	case *Call:
		args := make([]Expr, len(t.Args))
		for i, a := range t.Args {
			args[i] = rewriteAgg(a, keys, aggs, aggCols)
		}
		return &Call{Name: t.Name, Args: args}
	case *IsNullExpr:
		return &IsNullExpr{X: rewriteAgg(t.X, keys, aggs, aggCols), Not: t.Not}
	case *CaseExpr:
		out := &CaseExpr{}
		for _, w := range t.Whens {
			out.Whens = append(out.Whens, CaseWhen{
				Cond: rewriteAgg(w.Cond, keys, aggs, aggCols),
				Then: rewriteAgg(w.Then, keys, aggs, aggCols),
			})
		}
		if t.Else != nil {
			out.Else = rewriteAgg(t.Else, keys, aggs, aggCols)
		}
		return out
	}
	return e
}

// morselAgg is one morsel's partial aggregation: its thread-local group
// table (groups in first-appearance order, which is row order within the
// morsel) and one partial accumulator per aggregate call.
type morselAgg struct {
	hashes  []uint64    // key-tuple hash per local group (grouped only)
	rows    []int32     // representative local row per local group
	keyVecs []*Vector   // group-key vectors evaluated over the morsel
	states  []*aggState // one per aggregate call, sized to local groups
}

// execAggregate runs partitioned hash aggregation: every morsel groups and
// accumulates into thread-local state (buildPartial), then a serial combine
// assigns global group ids and folds the partials in morsel order
// (combinePartials). Because morsels are row ranges in order and local
// first-appearance order is row order, global group ids equal
// first-appearance-in-row-order ids, and the fixed fold order makes float
// results bit-identical at every parallelism degree. where (optional) is
// the fused WHERE, fnode its plan node.
func execAggregate(ec *ExecContext, st *SelectStmt, t *Table, node *PlanNode, where Expr, fnode *PlanNode) (*Table, error) {
	prep, err := prepareAgg(st, t.Slice(0, 0))
	if err != nil {
		return nil, err
	}
	// Each morsel charges its partial's approximate footprint once; the
	// total is released after the combine, when the partials die. With
	// spilling available, every morsel polls the soft budget before
	// building its partial; crossing it aborts the in-memory pass with a
	// sentinel and the aggregation restarts through the disk-backed
	// partitioned path (bit-identical results, bounded memory).
	spillOK := len(st.GroupBy) > 0 && ec.spillEnabled()
	partials := make([]*morselAgg, ec.numMorsels(t.NumRows()))
	var partialBytes atomic.Int64
	err = ec.forMorsels(t, where, fnode, func(i int, _ morsel, part *Table, _ []int32) error {
		if spillOK && ec.overBudget() {
			return errAggOverBudget
		}
		keys, args, err := prep.evalInputs(part)
		if err != nil {
			return err
		}
		ma, err := buildPartial(prep.aggCalls, keys, args, part.NumRows())
		if err != nil {
			return err
		}
		partials[i] = ma
		if ec != nil && ec.Acct != nil {
			b := ma.approxBytes()
			partialBytes.Add(b)
			ec.charge(b)
		}
		node.AddMorsels(1)
		return nil
	})
	if spillOK && err == errAggOverBudget {
		// The in-memory partials crossed the budget: drop them (and their
		// stage counters — the spill pass re-counts every morsel) and redo
		// the aggregation through the disk-backed partitioned path.
		ec.release(partialBytes.Load())
		if node != nil {
			atomic.StoreInt64(&node.Morsels, 0)
		}
		if fnode != nil {
			atomic.StoreInt64(&fnode.Morsels, 0)
			atomic.StoreInt64(&fnode.RowsOut, 0)
			atomic.StoreInt64(&fnode.Nanos, 0)
		}
		mid, err := execAggSpill(ec, prep, t, node, fnode, where)
		if err != nil {
			return nil, err
		}
		return aggFinalize(ec, mid, prep.having, prep.items)
	}
	if err != nil {
		return nil, err
	}
	mid, _, err := combinePartials(prep, partials)
	if err != nil {
		return nil, err
	}
	// The partials are garbage after the combine; the intermediate table is
	// the stage's live payload now.
	ec.release(partialBytes.Load())
	ec.charge(mid.ByteSize())
	if node != nil {
		node.Groups = int64(mid.NumRows())
	}
	return aggFinalize(ec, mid, prep.having, prep.items)
}

// buildPartial is the aggregate kernel's first half: it groups n rows by
// their key tuples (no keys = one global group) and folds each call's
// argument vectors into fresh per-group accumulators. The in-memory
// operator calls it per morsel; a spilled partition calls it per morsel-run
// of its reloaded rows — same rows, same order, same partial.
func buildPartial(calls []*AggCall, keys []*Vector, args [][]*Vector, n int) (*morselAgg, error) {
	ma := &morselAgg{keyVecs: keys}
	var groupOf []int
	localGroups := 1
	if len(keys) > 0 {
		// Vectorized grouping: hash every row's key tuple with the typed
		// kernels, then assign dense local ids through the open-addressing
		// table (first-appearance order = row order within the morsel).
		groupOf = make([]int, n)
		hashes := getHashBuf(n)
		hashKeyCols(keys, n, hashes)
		gi := newGroupIndex(0)
		gi.addSource(keys)
		for r := 0; r < n; r++ {
			groupOf[r] = int(gi.insert(hashes[r], 0, int32(r)))
		}
		putHashBuf(hashes)
		ma.hashes = gi.hashes
		ma.rows = make([]int32, len(gi.refs))
		for g, rf := range gi.refs {
			ma.rows[g] = rf.row
		}
		localGroups = gi.groups()
	}
	ma.states = make([]*aggState, len(calls))
	for k, c := range calls {
		s, err := newAggState(c, localGroups, args[k])
		if err != nil {
			return nil, err
		}
		s.observeAll(groupOf, args[k], n)
		ma.states[k] = s
	}
	return ma, nil
}

// combinePartials is the kernel's second half: it assigns global group ids
// in partial order (= first appearance in row order), folds every partial's
// accumulators in that order, and builds the intermediate table of $key*
// and $agg* columns. Local key-tuple hashes are content-based, so they
// carry over to the global table unchanged; equality falls back to the
// typed key vectors. refs locates each group's first row as (partial, row
// within it); nil when not grouping.
func combinePartials(p *aggPrep, partials []*morselAgg) (*Table, []rowRef, error) {
	groups := 1
	var refs []rowRef
	gmaps := make([][]int, len(partials)) // nil = identity: the one global group
	if len(p.emptyKeys) > 0 {
		hint := 0
		for _, ma := range partials {
			hint += len(ma.rows)
		}
		idx := newGroupIndex(hint)
		for mi, ma := range partials {
			src := idx.addSource(ma.keyVecs)
			gmaps[mi] = make([]int, len(ma.rows))
			for lg := range ma.rows {
				gmaps[mi][lg] = int(idx.insert(ma.hashes[lg], src, ma.rows[lg]))
			}
		}
		groups, refs = idx.groups(), idx.refs
	}
	var schema Schema
	var cols []*Vector
	// Key cells are copied typed from each group's representative row — no
	// boxing through interface values.
	for i, ek := range p.emptyKeys {
		out := NewVector(ek.Type())
		for _, rf := range refs {
			if err := appendKeyRow(out, partials[rf.src].keyVecs[i], int(rf.row)); err != nil {
				return nil, nil, err
			}
		}
		schema = append(schema, ColumnDef{Name: fmt.Sprintf("$key%d", i), Type: out.Type()})
		cols = append(cols, out)
	}
	for k, c := range p.aggCalls {
		s, err := newAggState(c, groups, p.emptyArgs[k])
		if err != nil {
			return nil, nil, err
		}
		for mi, ma := range partials {
			s.mergeFrom(ma.states[k], gmaps[mi])
		}
		v := s.result(groups)
		schema = append(schema, ColumnDef{Name: fmt.Sprintf("$agg%d", k), Type: v.Type()})
		cols = append(cols, v)
	}
	mid, err := NewTableFromVectors(schema, cols)
	return mid, refs, err
}

// aggPrep is the statement-level preparation of an aggregation: rewritten
// select items and HAVING (aggregate calls and group keys replaced by
// $agg*/$key* column refs), the collected aggregate calls, and the typed
// group-key and aggregate-argument vectors over the empty input.
type aggPrep struct {
	groupBy   []Expr
	items     []SelectItem
	having    Expr
	aggCalls  []*AggCall
	emptyKeys []*Vector
	emptyArgs [][]*Vector
}

// prepareAgg rewrites the statement against the (empty) input schema and
// validates group keys and aggregate arguments, so errors (unknown
// columns, bad quantile fractions, corr arity) surface deterministically
// even when the input has no rows. Shared by the in-memory aggregate and
// the spilled join→aggregate path, which never materializes its input.
func prepareAgg(st *SelectStmt, empty *Table) (*aggPrep, error) {
	keyNames := map[string]string{}
	for i, g := range st.GroupBy {
		keyNames[g.String()] = fmt.Sprintf("$key%d", i)
	}
	p := &aggPrep{groupBy: st.GroupBy}
	aggCols := map[string]string{}
	p.items = make([]SelectItem, len(st.Items))
	for i, it := range st.Items {
		p.items[i] = SelectItem{Expr: rewriteAgg(it.Expr, keyNames, &p.aggCalls, aggCols), Alias: it.Alias}
		if p.items[i].Alias == "" {
			p.items[i].Alias = exprName(it.Expr)
		}
	}
	if st.Having != nil {
		p.having = rewriteAgg(st.Having, keyNames, &p.aggCalls, aggCols)
	}
	var err error
	if p.emptyKeys, p.emptyArgs, err = p.evalInputs(empty); err != nil {
		return nil, err
	}
	for k, c := range p.aggCalls {
		if _, err := newAggState(c, 0, p.emptyArgs[k]); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// evalInputs evaluates the group keys and every call's arguments (see
// aggArgs) over one batch of input rows.
func (p *aggPrep) evalInputs(part *Table) (keys []*Vector, args [][]*Vector, err error) {
	keys = make([]*Vector, len(p.groupBy))
	for i, g := range p.groupBy {
		if keys[i], err = Eval(g, part); err != nil {
			return nil, nil, err
		}
	}
	args = make([][]*Vector, len(p.aggCalls))
	for k, c := range p.aggCalls {
		if args[k], err = aggArgs(c, part); err != nil {
			return nil, nil, err
		}
	}
	return keys, args, nil
}

// aggFinalize applies the HAVING filter (group counts are small: serial)
// and the final projection to the $key/$agg intermediate table. Shared by
// the in-memory and spilled aggregation paths.
func aggFinalize(ec *ExecContext, mid *Table, having Expr, items []SelectItem) (*Table, error) {
	if having != nil {
		sel, err := FilterSel(having, mid)
		if err != nil {
			return nil, err
		}
		mid = mid.Gather(sel)
	}
	outSchema := make(Schema, len(items))
	outCols := make([]*Vector, len(items))
	for i, it := range items {
		v, err := Eval(it.Expr, mid)
		if err != nil {
			return nil, err
		}
		outSchema[i] = ColumnDef{Name: it.Alias, Type: v.Type()}
		outCols[i] = v
	}
	out, err := NewTableFromVectors(outSchema, outCols)
	if err != nil {
		return nil, err
	}
	ec.charge(out.ByteSize())
	return out, nil
}

// approxBytes estimates one morsel partial's footprint: the evaluated key
// vectors plus a coarse per-group, per-aggregate state cost. An estimate is
// enough — the accountant tracks operator-scale allocations, not bytes-exact
// heap usage.
func (ma *morselAgg) approxBytes() int64 {
	var b int64
	for _, v := range ma.keyVecs {
		b += v.ByteSize()
	}
	b += int64(len(ma.hashes))*8 + int64(len(ma.rows))*4
	groups := len(ma.rows)
	if len(ma.keyVecs) == 0 {
		groups = 1
	}
	b += int64(groups) * int64(len(ma.states)) * 48
	return b
}

// appendKeyRow appends row r of src to out with a typed copy (NULL stays
// NULL). The types match by construction — both come from evaluating the
// same group-key expression — but a mismatch falls back to the converting
// AppendValue rather than corrupting the column.
func appendKeyRow(out, src *Vector, r int) error {
	if src.IsNull(r) {
		out.AppendNull()
		return nil
	}
	if out.typ != src.typ {
		return out.AppendValue(src.Value(r))
	}
	switch src.typ {
	case Float64:
		out.AppendFloat64(src.f64[r])
	case Int64:
		out.AppendInt64(src.i64[r])
	case Bool:
		out.AppendBool(src.b[r])
	case String:
		out.AppendString(src.dict.Value(src.codes[r]))
	}
	return nil
}

// mergeFrom folds src (one morsel's partial state) into dst. gmap maps
// src's local group ids to dst's global ids; nil means identity (the
// single global group). Callers fold morsels in morsel-index order, which
// fixes the float reduction order across parallelism degrees.
func (dst *aggState) mergeFrom(src *aggState, gmap []int) {
	gOf := func(lg int) int {
		if gmap == nil {
			return lg
		}
		return gmap[lg]
	}
	switch dst.call.Name {
	case "count":
		if dst.call.Distinct {
			dst.distinct.mergeFrom(src.distinct, gmap, dst.count)
			return
		}
		for lg, c := range src.count {
			dst.count[gOf(lg)] += c
		}
	case "sum", "avg", "stddev_samp", "stddev", "var_samp", "variance":
		for lg := range src.count {
			g := gOf(lg)
			dst.count[g] += src.count[lg]
			dst.sum[g] += src.sum[lg]
			dst.sum2[g] += src.sum2[lg]
		}
	case "min", "max":
		for lg := range src.count {
			g := gOf(lg)
			dst.count[g] += src.count[lg]
			if !src.seenMM[lg] {
				continue
			}
			if !dst.seenMM[g] {
				dst.seenMM[g] = true
				if dst.strMM {
					dst.minS[g], dst.maxS[g] = src.minS[lg], src.maxS[lg]
				} else {
					dst.minF[g], dst.maxF[g] = src.minF[lg], src.maxF[lg]
				}
				continue
			}
			if dst.strMM {
				if src.minS[lg] < dst.minS[g] {
					dst.minS[g] = src.minS[lg]
				}
				if src.maxS[lg] > dst.maxS[g] {
					dst.maxS[g] = src.maxS[lg]
				}
			} else {
				if src.minF[lg] < dst.minF[g] {
					dst.minF[g] = src.minF[lg]
				}
				if src.maxF[lg] > dst.maxF[g] {
					dst.maxF[g] = src.maxF[lg]
				}
			}
		}
	case "corr":
		for lg := range src.count {
			g := gOf(lg)
			dst.count[g] += src.count[lg]
			dst.sum[g] += src.sum[lg]
			dst.sumY[g] += src.sumY[lg]
			dst.sum2[g] += src.sum2[lg]
			dst.sumY2[g] += src.sumY2[lg]
			dst.sumXY[g] += src.sumXY[lg]
		}
	case "median", "quantile":
		for lg := range src.count {
			g := gOf(lg)
			dst.count[g] += src.count[lg]
			dst.vals[g] = append(dst.vals[g], src.vals[lg]...)
		}
	}
}
