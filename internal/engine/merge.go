package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"mip/internal/obs"
)

// Part is one member of a merge table: typically a remote table on another
// node, addressed through whatever transport the federation layer provides.
// QueryCtx ships SQL text to wherever the part's rows live and returns the
// result under the querying statement's context, so cancelling a merge
// query cancels the part-side execution too (engine-level for LocalPart, a
// cancelled RPC for federation transports). The engine never needs the
// part's raw rows unless a query cannot be decomposed.
type Part interface {
	// PartName identifies the part (e.g. the worker node id).
	PartName() string
	// QueryCtx executes SQL against the part and returns the result table.
	QueryCtx(ctx context.Context, sql string) (*Table, error)
}

// LocalPart adapts a local DB table as a merge-table part (used in tests
// and single-process deployments).
type LocalPart struct {
	Name string
	DB   *DB
}

// PartName implements Part.
func (p *LocalPart) PartName() string { return p.Name }

// QueryCtx implements Part.
func (p *LocalPart) QueryCtx(ctx context.Context, sql string) (*Table, error) {
	return p.DB.QueryCtx(ctx, sql)
}

// MergeTable is a non-materialized UNION ALL view over parts holding
// identically-schemed tables (MonetDB's remote+merge tables, which MIP uses
// for its non-secure aggregation path). Aggregate queries are decomposed
// into per-part partial aggregates whenever the aggregate set allows it, so
// only aggregates — never rows — travel.
type MergeTable struct {
	Schema    Schema
	TableName string // table name on each part
	Parts     []Part
	// MinParts, when positive, tolerates failing parts: a query succeeds
	// over the surviving parts as long as at least MinParts answered, and
	// the statement's QueryStats.Dropped names the dropped ones. Zero (the
	// default) keeps strict semantics — any part failure fails the query.
	MinParts int
}

// execSelect serves a SELECT against the merge view. With a plan-cache
// entry on the context, the pushdown decomposition and the rendered
// per-part SQL come memoized from the entry instead of being rebuilt.
func (m *MergeTable) execSelect(ec *ExecContext, st *SelectStmt, qs *QueryStats) (*Table, error) {
	p := m.plan(ec.plan, st)
	if p.pushOK {
		return m.execPushdown(ec, st, p.specs, p.sql, p.partCols, qs)
	}
	return m.execMaterialize(ec, st, p.sql, p.matCols, qs)
}

// plan derives st's pushdown decision and per-part SQL against m. Both
// depend only on the statement and the part-table name, so e's memo is
// reused when it was derived for the same name; the first plan derived for
// an entry becomes its memo.
func (m *MergeTable) plan(e *planEntry, st *SelectStmt) *mergePlan {
	if e != nil {
		if p := e.merge.Load(); p != nil && p.table == m.TableName {
			return p
		}
	}
	p := &mergePlan{table: m.TableName}
	if p.specs, p.pushOK = m.decompose(st); p.pushOK {
		p.sql, p.partCols = m.partialSQL(st, p.specs)
	} else {
		p.sql, p.matCols = m.materializeSQL(st)
	}
	if e != nil {
		e.merge.CompareAndSwap(nil, p)
	}
	return p
}

// execMaterialize unions part rows locally and runs the query over the
// union. Fallback path for non-decomposable aggregates (median/quantile)
// and plain row queries. Each part's SQL carries the statement's WHERE,
// only the referenced columns, and — when no ORDER BY or aggregate needs
// the whole union — a LIMIT cap, so the wire carries as little as the
// query allows. The union is built streamingly: each part's rows fold
// into the union as they arrive (in part order, so the result is
// deterministic) and the part table is released immediately, instead of
// holding every worker table until a final concatenation.
func (m *MergeTable) execMaterialize(ec *ExecContext, st *SelectStmt, sql string, pushedCols []string, qs *QueryStats) (*Table, error) {
	t0 := time.Now()
	ec.setOperator("merge materialize " + m.TableName)
	union, parts, failed, err := m.streamUnion(ec, sql)
	if err != nil {
		return nil, err
	}
	if union == nil {
		if len(m.Schema) == 0 {
			return nil, fmt.Errorf("engine: merge table %s has no parts and no declared schema", m.TableName)
		}
		// No parts registered: fall back to the declared schema (narrowed
		// to the pushed projection) so the statement still typechecks over
		// an empty union instead of running under a nil schema.
		union = NewTable(m.declaredSchema(pushedCols))
	}
	recordShipped(qs, parts, failed)
	m.plantPlan(qs, "materialize", sql, parts, union, time.Since(t0))
	local := *st
	local.Where = nil // already applied at the parts
	return execSelect(ec, &local, source{t: union}, qs)
}

// materializeSQL builds the per-part SQL for the materialize path. Three
// reductions apply, each provably transparent to the local pipeline:
//   - projection: only columns the statement references ship (SELECT *
//     keeps the full width);
//   - filter: the whole WHERE runs remotely (the local filter stage is
//     skipped), exactly as before;
//   - limit: without ORDER BY or aggregation the union's first
//     offset+limit rows are a prefix of the part-order concatenation, and
//     every union row at a position below that cap sits at or below the
//     same position within its own part — so capping each part at
//     offset+limit preserves the rows the local limit stage can emit.
//
// It returns the SQL plus the pushed projection (nil when shipping *).
func (m *MergeTable) materializeSQL(st *SelectStmt) (string, []string) {
	proj := "*"
	cols := m.referencedColumns(st)
	if cols != nil {
		q := make([]string, len(cols))
		for i, c := range cols {
			q[i] = QuoteIdent(c)
		}
		proj = strings.Join(q, ", ")
	}
	sql := fmt.Sprintf("SELECT %s FROM %s", proj, QuoteIdent(m.TableName))
	if st.Where != nil {
		sql += " WHERE " + st.Where.String()
	}
	if st.Limit >= 0 && len(st.OrderBy) == 0 && !selHasAgg(st) {
		sql += fmt.Sprintf(" LIMIT %d", st.Limit+st.Offset)
	}
	return sql, cols
}

// referencedColumns lists the part columns the statement touches, in
// first-reference order, or nil when the full width is needed (SELECT *,
// or a statement referencing no columns at all). ORDER BY names that match
// a select-item alias resolve to the projected column locally, so they are
// not part columns and are excluded.
func (m *MergeTable) referencedColumns(st *SelectStmt) []string {
	if st.Star {
		return nil
	}
	aliases := map[string]bool{}
	for _, it := range st.Items {
		if it.Alias != "" {
			aliases[strings.ToLower(it.Alias)] = true
		}
	}
	seen := map[string]bool{}
	var out []string
	add := func(name string) {
		k := strings.ToLower(name)
		if !seen[k] {
			seen[k] = true
			out = append(out, name)
		}
	}
	for _, it := range st.Items {
		walkColRefs(it.Expr, add)
	}
	walkColRefs(st.Where, add)
	for _, g := range st.GroupBy {
		walkColRefs(g, add)
	}
	walkColRefs(st.Having, add)
	for _, o := range st.OrderBy {
		walkColRefs(o.Expr, func(n string) {
			if !aliases[strings.ToLower(n)] {
				add(n)
			}
		})
	}
	return out
}

// declaredSchema narrows the declared schema to the pushed projection (in
// pushed order); a nil projection keeps the full declared schema.
func (m *MergeTable) declaredSchema(cols []string) Schema {
	if cols == nil {
		return m.Schema
	}
	var out Schema
	for _, c := range cols {
		if i := m.Schema.ColIndex(c); i >= 0 {
			out = append(out, m.Schema[i])
		}
	}
	return out
}

// partResult summarizes one part's answer: its shape and how long the
// round trip took. The rows themselves are folded into the union as they
// arrive and released, so only these scalars survive the fan-in.
type partResult struct {
	name  string
	rows  int
	cols  int
	bytes int64
	nanos int64
}

// recordShipped accumulates one merge fan-out's wire traffic and part
// roster onto the statement's stats (a statement can fan out more than
// once — joins over two merge views — so fields add, not overwrite).
func recordShipped(qs *QueryStats, parts []partResult, failed []string) {
	for _, pr := range parts {
		qs.RowsShipped += pr.rows
		qs.BytesShipped += pr.bytes
		qs.Workers = append(qs.Workers, pr.name)
	}
	qs.Dropped = append(qs.Dropped, failed...)
}

// plantPlan roots qs at the merge fan-in node: one child per surviving
// part, carrying that part's shipped rows, round-trip time, and the SQL
// pushed to it (so EXPLAIN ANALYZE shows exactly what each part ran).
func (m *MergeTable) plantPlan(qs *QueryStats, mode, sql string, parts []partResult, union *Table, elapsed time.Duration) {
	n := &PlanNode{
		Op:      "merge",
		Detail:  mode + " " + m.TableName,
		RowsIn:  int64(union.NumRows()),
		RowsOut: int64(union.NumRows()),
		Batches: int64(union.NumCols()),
		Nanos:   elapsed.Nanoseconds(),
		Bytes:   union.ByteSize(),
	}
	if len(parts) > 1 {
		n.Parallelism = len(parts) // part fan-out runs one goroutine per part
	}
	for _, pr := range parts {
		n.Children = append(n.Children, &PlanNode{
			Op:      "part",
			Detail:  pr.name + ": " + sql,
			RowsIn:  int64(pr.rows),
			RowsOut: int64(pr.rows),
			Batches: int64(pr.cols),
			Nanos:   pr.nanos,
			Bytes:   pr.bytes,
		})
	}
	atomic.AddInt64(&qs.OpNanos[obs.OpMerge], elapsed.Nanoseconds())
	qs.Root = n
}

// appendVector appends all of src's rows onto dst (same type): the engine's
// one union kernel, under Table.Append, streamUnion and concatVectors.
// String payloads are re-encoded through a per-call code translation table
// (first-appearance order) and null bitmaps materialize lazily.
func appendVector(dst, src *Vector) {
	if src.valid != nil && dst.valid == nil {
		dst.valid = NewBitmap(dst.Len())
	}
	switch dst.typ {
	case Float64:
		dst.f64 = append(dst.f64, src.f64...)
	case Int64:
		dst.i64 = append(dst.i64, src.i64...)
	case Bool:
		dst.b = append(dst.b, src.b...)
	case String:
		trans := make([]int32, src.dict.Size())
		for c := range trans {
			trans[c] = dst.dict.Code(src.dict.Value(int32(c)))
		}
		for _, c := range src.codes {
			dst.codes = append(dst.codes, trans[c])
		}
	}
	if dst.valid != nil {
		for i, n := 0, src.Len(); i < n; i++ {
			dst.valid.Append(src.valid == nil || src.valid.Get(i))
		}
	}
}

// streamUnion fans the SQL out to every part concurrently and folds each
// answer into the growing union the moment it (and every earlier part)
// has arrived, releasing the part table immediately — peak memory is the
// union plus one in-flight part, not the union plus all of them. Parts
// are consumed in part-index order, so the union is byte-identical to the
// concatenate-everything fan-in it replaces. The union is nil when no
// part survived (i.e. none are registered). Failure semantics match the
// old queryAll: with MinParts unset any failure is fatal, otherwise
// failures are tolerated down to MinParts survivors.
func (m *MergeTable) streamUnion(ec *ExecContext, sql string) (*Table, []partResult, []string, error) {
	ctx := context.Background()
	if ec != nil && ec.Ctx != nil {
		ctx = ec.Ctx
	}
	out := make([]*Table, len(m.Parts))
	nanos := make([]int64, len(m.Parts))
	errs := make([]error, len(m.Parts))
	done := make([]chan struct{}, len(m.Parts))
	for i, p := range m.Parts {
		done[i] = make(chan struct{})
		go func(i int, p Part) {
			defer close(done[i])
			t0 := time.Now()
			t, err := p.QueryCtx(ctx, sql)
			nanos[i] = time.Since(t0).Nanoseconds()
			if err != nil {
				errs[i] = fmt.Errorf("part %s: %w", p.PartName(), err)
				return
			}
			if t == nil {
				// A part answering (nil, nil) would otherwise crash the
				// fan-in; treat it as a failure so MinParts semantics apply.
				errs[i] = fmt.Errorf("part %s: returned no table", p.PartName())
				return
			}
			out[i] = t
		}(i, p)
	}
	var union *Table
	var ok []partResult
	var failed []string
	var failErrs []error
	for i := range m.Parts {
		<-done[i]
		if err := ec.interrupted(); err != nil {
			return nil, nil, nil, err
		}
		if errs[i] != nil {
			failed = append(failed, m.Parts[i].PartName())
			failErrs = append(failErrs, errs[i])
			continue
		}
		t := out[i]
		out[i] = nil // release the part as soon as it is folded in
		if union == nil {
			union = NewTable(t.Schema())
		}
		if err := union.Append(t); err != nil {
			return nil, nil, nil, err
		}
		ok = append(ok, partResult{name: m.Parts[i].PartName(), rows: t.NumRows(),
			cols: t.NumCols(), bytes: t.ByteSize(), nanos: nanos[i]})
	}
	if len(failed) > 0 && (m.MinParts <= 0 || len(ok) < m.MinParts) {
		return nil, nil, nil, errors.Join(failErrs...)
	}
	if union != nil {
		ec.charge(union.ByteSize())
	}
	if len(failed) == 0 {
		failed = nil
	}
	return union, ok, failed, nil
}

// partialSpec describes how one original aggregate is computed from
// partial columns after the per-part round.
type partialSpec struct {
	orig *AggCall
	// partials: SQL aggregate expressions shipped to the parts, and the
	// merge operation (sum/min/max) that combines the per-part values.
	partials []partialCol
	// final builds the original aggregate's value from the merged partial
	// column names.
	final func(cols []string) Expr
}

type partialCol struct {
	sqlExpr string // aggregate expression sent to the part
	merge   string // "sum" | "min" | "max"
}

// decompose checks whether every aggregate in the query can be computed
// from additive per-part partials and, if so, returns the plan.
// GROUP BY keys must be plain column references for pushdown.
func (m *MergeTable) decompose(st *SelectStmt) ([]partialSpec, bool) {
	hasAgg := false
	for _, it := range st.Items {
		if HasAgg(it.Expr) {
			hasAgg = true
		}
	}
	if !hasAgg {
		return nil, false
	}
	for _, g := range st.GroupBy {
		if _, ok := g.(*ColRef); !ok {
			return nil, false
		}
	}
	var aggs []*AggCall
	seen := map[string]bool{}
	for _, it := range st.Items {
		collectAggs(it.Expr, &aggs, seen)
	}
	if st.Having != nil {
		collectAggs(st.Having, &aggs, seen)
	}
	var specs []partialSpec
	for _, a := range aggs {
		spec, ok := decomposeAgg(a)
		if !ok {
			return nil, false
		}
		specs = append(specs, spec)
	}
	return specs, true
}

// collectAggs appends each distinct aggregate call inside e to aggs, in
// first-appearance order.
func collectAggs(e Expr, aggs *[]*AggCall, seen map[string]bool) {
	walkExpr(e, func(x Expr) bool {
		a, ok := x.(*AggCall)
		if ok && !seen[a.String()] {
			seen[a.String()] = true
			*aggs = append(*aggs, a)
		}
		return !ok
	})
}

// decomposeAgg maps one aggregate to its partial columns and final
// expression. COUNT DISTINCT, median and quantile are not decomposable.
func decomposeAgg(a *AggCall) (partialSpec, bool) {
	if a.Distinct {
		return partialSpec{}, false
	}
	argSQL := func(i int) string { return a.Args[i].String() }
	col := func(name string) Expr { return &ColRef{Name: name} }
	switch a.Name {
	case "count":
		expr := "count(*)"
		if !a.Star {
			expr = fmt.Sprintf("count(%s)", argSQL(0))
		}
		return partialSpec{
			orig:     a,
			partials: []partialCol{{expr, "sum"}},
			final:    func(c []string) Expr { return &Call{Name: "cast_double", Args: []Expr{col(c[0])}} },
		}, true
	case "sum":
		return partialSpec{
			orig:     a,
			partials: []partialCol{{fmt.Sprintf("sum(%s)", argSQL(0)), "sum"}},
			final:    func(c []string) Expr { return col(c[0]) },
		}, true
	case "min", "max":
		return partialSpec{
			orig:     a,
			partials: []partialCol{{fmt.Sprintf("%s(%s)", a.Name, argSQL(0)), a.Name}},
			final:    func(c []string) Expr { return col(c[0]) },
		}, true
	case "avg":
		return partialSpec{
			orig: a,
			partials: []partialCol{
				{fmt.Sprintf("sum(%s)", argSQL(0)), "sum"},
				{fmt.Sprintf("count(%s)", argSQL(0)), "sum"},
			},
			final: func(c []string) Expr {
				return &Binary{Op: "/", L: col(c[0]), R: &Call{Name: "cast_double", Args: []Expr{col(c[1])}}}
			},
		}, true
	case "stddev_samp", "stddev", "var_samp", "variance":
		x := argSQL(0)
		return partialSpec{
			orig: a,
			partials: []partialCol{
				{fmt.Sprintf("sum(%s)", x), "sum"},
				{fmt.Sprintf("sum((%s) * (%s))", x, x), "sum"},
				{fmt.Sprintf("count(%s)", x), "sum"},
			},
			final: func(c []string) Expr {
				// (sum2 - sum*sum/n) / (n-1), sqrt for stddev.
				n := &Call{Name: "cast_double", Args: []Expr{col(c[2])}}
				variance := &Binary{Op: "/",
					L: &Binary{Op: "-", L: col(c[1]),
						R: &Binary{Op: "/", L: &Binary{Op: "*", L: col(c[0]), R: col(c[0])}, R: n}},
					R: &Binary{Op: "-", L: n, R: &Lit{Val: 1.0}},
				}
				if a.Name == "stddev_samp" || a.Name == "stddev" {
					return &Call{Name: "sqrt", Args: []Expr{variance}}
				}
				return variance
			},
		}, true
	case "corr":
		x, y := argSQL(0), argSQL(1)
		return partialSpec{
			orig: a,
			partials: []partialCol{
				{fmt.Sprintf("sum(CASE WHEN (%s) IS NOT NULL AND (%s) IS NOT NULL THEN (%s) ELSE NULL END)", x, y, x), "sum"},
				{fmt.Sprintf("sum(CASE WHEN (%s) IS NOT NULL AND (%s) IS NOT NULL THEN (%s) ELSE NULL END)", x, y, y), "sum"},
				{fmt.Sprintf("sum(CASE WHEN (%s) IS NOT NULL AND (%s) IS NOT NULL THEN (%s)*(%s) ELSE NULL END)", x, y, x, x), "sum"},
				{fmt.Sprintf("sum(CASE WHEN (%s) IS NOT NULL AND (%s) IS NOT NULL THEN (%s)*(%s) ELSE NULL END)", x, y, y, y), "sum"},
				{fmt.Sprintf("sum(CASE WHEN (%s) IS NOT NULL AND (%s) IS NOT NULL THEN (%s)*(%s) ELSE NULL END)", x, y, x, y), "sum"},
				{fmt.Sprintf("count((%s) + (%s))", x, y), "sum"},
			},
			final: func(c []string) Expr {
				n := &Call{Name: "cast_double", Args: []Expr{col(c[5])}}
				cov := &Binary{Op: "-", L: col(c[4]),
					R: &Binary{Op: "/", L: &Binary{Op: "*", L: col(c[0]), R: col(c[1])}, R: n}}
				vx := &Binary{Op: "-", L: col(c[2]),
					R: &Binary{Op: "/", L: &Binary{Op: "*", L: col(c[0]), R: col(c[0])}, R: n}}
				vy := &Binary{Op: "-", L: col(c[3]),
					R: &Binary{Op: "/", L: &Binary{Op: "*", L: col(c[1]), R: col(c[1])}, R: n}}
				return &Binary{Op: "/", L: cov,
					R: &Call{Name: "sqrt", Args: []Expr{&Binary{Op: "*", L: vx, R: vy}}}}
			},
		}, true
	}
	return partialSpec{}, false
}

// partialSQL builds the per-part partial-aggregate query for a decomposed
// plan, returning the SQL plus the partial column names grouped by spec.
func (m *MergeTable) partialSQL(st *SelectStmt, specs []partialSpec) (string, [][]string) {
	var sel []string
	for i, g := range st.GroupBy {
		sel = append(sel, fmt.Sprintf("%s AS gk%d", g.String(), i))
	}
	pcol := 0
	colNames := make([][]string, len(specs))
	for i, sp := range specs {
		for _, pc := range sp.partials {
			name := fmt.Sprintf("p%d", pcol)
			colNames[i] = append(colNames[i], name)
			sel = append(sel, fmt.Sprintf("%s AS %s", pc.sqlExpr, name))
			pcol++
		}
	}
	sql := fmt.Sprintf("SELECT %s FROM %s", strings.Join(sel, ", "), QuoteIdent(m.TableName))
	if st.Where != nil {
		sql += " WHERE " + st.Where.String()
	}
	if len(st.GroupBy) > 0 {
		var keys []string
		for _, g := range st.GroupBy {
			keys = append(keys, g.String())
		}
		sql += " GROUP BY " + strings.Join(keys, ", ")
	}
	return sql, colNames
}

// execPushdown runs the decomposed plan: per-part partial aggregates,
// merged locally, then the final projection.
func (m *MergeTable) execPushdown(ec *ExecContext, st *SelectStmt, specs []partialSpec, sql string, colNames [][]string, qs *QueryStats) (*Table, error) {
	// Fan out the pre-built partial query, folding each part's partials
	// into the union as they land.
	t0 := time.Now()
	ec.setOperator("merge pushdown " + m.TableName)
	unionAll, partTables, failed, err := m.streamUnion(ec, sql)
	if err != nil {
		return nil, err
	}
	if unionAll == nil {
		return nil, fmt.Errorf("merge table %s: no parts answered", m.TableName)
	}
	recordShipped(qs, partTables, failed)
	m.plantPlan(qs, "pushdown", sql, partTables, unionAll, time.Since(t0))

	// 3. Merge partials: group by the gk* columns, combining each partial
	// with its merge op.
	mergeStmt := &SelectStmt{Limit: -1}
	for i := range st.GroupBy {
		name := fmt.Sprintf("gk%d", i)
		mergeStmt.Items = append(mergeStmt.Items, SelectItem{Expr: &ColRef{Name: name}, Alias: name})
		mergeStmt.GroupBy = append(mergeStmt.GroupBy, &ColRef{Name: name})
	}
	pcol := 0
	for _, sp := range specs {
		for _, pc := range sp.partials {
			name := fmt.Sprintf("p%d", pcol)
			mergeStmt.Items = append(mergeStmt.Items, SelectItem{
				Expr:  &AggCall{Name: pc.merge, Args: []Expr{&ColRef{Name: name}}},
				Alias: name,
			})
			pcol++
		}
	}
	merged, err := execSelect(ec, mergeStmt, source{t: unionAll}, qs)
	if err != nil {
		return nil, err
	}

	// 4. Final projection over merged partials: rewrite the original items
	// replacing group keys and aggregate calls.
	keyNames := map[string]string{}
	for i, g := range st.GroupBy {
		keyNames[g.String()] = fmt.Sprintf("gk%d", i)
	}
	finalOf := map[string]Expr{}
	for i, sp := range specs {
		finalOf[sp.orig.String()] = sp.final(colNames[i])
	}
	var rewrite func(Expr) Expr
	rewrite = func(e Expr) Expr {
		if k, ok := keyNames[e.String()]; ok {
			return &ColRef{Name: k}
		}
		if t, ok := e.(*AggCall); ok {
			return finalOf[t.String()]
		}
		return mapChildren(e, rewrite)
	}

	stages := ec.pushdownStages(st)[1:] // the combine above was the aggregate
	if st.Having != nil {
		sh := qs.beginStage(stages[0].op, stages[0].detail, merged.NumRows())
		selv, err := FilterSel(rewrite(st.Having), merged)
		if err != nil {
			return nil, err
		}
		merged = merged.Gather(selv)
		sh.end(merged)
		stages = stages[1:]
	}

	sp := qs.beginStage(stages[0].op, stages[0].detail, merged.NumRows())
	outSchema := make(Schema, len(st.Items))
	outCols := make([]*Vector, len(st.Items))
	for i, it := range st.Items {
		v, err := Eval(rewrite(it.Expr), merged)
		if err != nil {
			return nil, err
		}
		name := it.Alias
		if name == "" {
			name = exprName(it.Expr)
		}
		outSchema[i] = ColumnDef{Name: name, Type: v.Type()}
		outCols[i] = v
	}
	out, err := NewTableFromVectors(outSchema, outCols)
	if err != nil {
		return nil, err
	}
	sp.end(out)
	out, err = ec.runStages(st, stages[1:], source{t: out}, qs)
	if err != nil {
		return nil, err
	}
	// The combine-stage execSelect counted its intermediate rows; the
	// statement's result is this final projection.
	qs.RowsOut = out.NumRows()
	return out, nil
}

// pushdownStages lists what the master runs once the parts' partial
// aggregates have arrived: the combining aggregate, HAVING, the final
// projection, then ORDER BY / LIMIT. EXPLAIN renders the list; execPushdown
// opens its stages from it.
func (ec *ExecContext) pushdownStages(st *SelectStmt) []selectStage {
	out := []selectStage{{stageAggregate, "aggregate", aggDetail(st), false, 0}}
	if st.Having != nil {
		out = append(out, selectStage{stageFilter, "filter", "having " + st.Having.String(), false, 0})
	}
	out = append(out, selectStage{stageProject, "project", projectDetail(st), false, 0})
	return append(out, ec.afterAggregate(st)...)
}
