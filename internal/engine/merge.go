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

// execSelect serves a SELECT against the merge view: it fans the plan's
// per-part SQL out to the parts and runs the statement, less its WHERE
// (already applied at the parts), over the union of their answers. A
// materialize plan's answers are rows; a pushdown plan's are partial
// aggregates, which the statement's aggregate stage reads as its partials
// (partAnswers). With a plan-cache entry on the context, the plan comes
// memoized from the entry instead of being rebuilt.
func (m *MergeTable) execSelect(ec *ExecContext, st *SelectStmt, qs *QueryStats) (*Table, error) {
	p := m.plan(ec.plan, st)
	t0 := time.Now()
	ec.setOperator("merge " + p.mode() + " " + m.TableName)
	union, parts, failed, err := m.streamUnion(ec, p.sql)
	if err != nil {
		return nil, err
	}
	in := source{t: union}
	switch {
	case union == nil && len(m.Schema) == 0:
		return nil, fmt.Errorf("engine: merge table %s has no parts and no declared schema", m.TableName)
	case union == nil:
		// No parts registered: the statement runs over an empty table of
		// the declared schema, so it typechecks and answers as over an
		// empty pooled table.
		in.t = narrowed(st, NewTable(m.Schema))
	case p.pushOK:
		in.parts = &partAnswers{parts: parts, partials: p.partials}
	}
	recordShipped(qs, parts, failed)
	m.plantPlan(qs, p.mode(), p.sql, parts, in.t, time.Since(t0))
	local := *st
	local.Where = nil
	return execSelect(ec, &local, in, qs)
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
	if p.partials, p.pushOK = decompose(st); p.pushOK {
		p.sql = m.partialSQL(st, p.partials)
	} else {
		p.sql = m.materializeSQL(st)
	}
	if e != nil {
		e.merge.CompareAndSwap(nil, p)
	}
	return p
}

// mode names the plan in its merge node: "pushdown" or "materialize".
func (p *mergePlan) mode() string {
	if p.pushOK {
		return "pushdown"
	}
	return "materialize"
}

// materializeSQL builds the per-part SQL for the materialize path: the
// fallback for non-decomposable aggregates (median, quantile, COUNT
// DISTINCT) and plain row queries, whose union of part rows the statement
// then runs over. Three reductions apply, each provably transparent to the
// local pipeline:
//   - projection: only the columns the statement reads (readColumns)
//     ship; SELECT * and a statement naming no column keep the full width;
//   - filter: the whole WHERE runs remotely (the local filter stage is
//     skipped), exactly as before;
//   - limit: without ORDER BY or aggregation the union's first
//     offset+limit rows are a prefix of the part-order concatenation, and
//     every union row at a position below that cap sits at or below the
//     same position within its own part — so capping each part at
//     offset+limit preserves the rows the local limit stage can emit.
func (m *MergeTable) materializeSQL(st *SelectStmt) string {
	proj := "*"
	if cols := readColumns(st); cols != nil {
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
	return sql
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
// (first-appearance order), unless both share one dictionary, and null
// bitmaps materialize lazily.
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
		if src.dict == dst.dict {
			dst.codes = append(dst.codes, src.codes...)
			break
		}
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

// decompose reports whether st pushes down and, if so, returns the partial
// aggregates each part computes per aggregate call, in the order the
// aggregate's own rewrite (rewriteAggs) collects the calls. St pushes down
// when it aggregates (selHasAgg), groups by plain column references only,
// ships at least one column and uses decomposable aggregates only.
func decompose(st *SelectStmt) ([][]string, bool) {
	if !selHasAgg(st) {
		return nil, false
	}
	for _, g := range st.GroupBy {
		if _, ok := g.(*ColRef); !ok {
			return nil, false
		}
	}
	calls := rewriteAggs(st).aggCalls
	if len(calls) == 0 && len(st.GroupBy) == 0 {
		return nil, false // nothing to ship: a HAVING without aggregates
	}
	partials := make([][]string, len(calls))
	for k, a := range calls {
		if partials[k] = partialExprs(a); partials[k] == nil {
			return nil, false
		}
	}
	return partials, true
}

// partialExprs lists the partial aggregates a part computes for one call,
// in the column layout loadPartials reads; nil when the call does not
// decompose (COUNT DISTINCT, median, quantile).
func partialExprs(a *AggCall) []string {
	if a.Distinct {
		return nil
	}
	arg := func(i int) string { return a.Args[i].String() }
	switch a.Name {
	case "count":
		if a.Star {
			return []string{"count(*)"}
		}
		return []string{fmt.Sprintf("count(%s)", arg(0))}
	case "sum", "min", "max":
		return []string{fmt.Sprintf("%s(%s)", a.Name, arg(0))}
	case "avg":
		return []string{fmt.Sprintf("sum(%s)", arg(0)), fmt.Sprintf("count(%s)", arg(0))}
	case "stddev_samp", "stddev", "var_samp", "variance":
		x := arg(0)
		return []string{fmt.Sprintf("sum(%s)", x), fmt.Sprintf("sum((%s) * (%s))", x, x), fmt.Sprintf("count(%s)", x)}
	case "corr":
		x, y := arg(0), arg(1)
		both := func(v string) string {
			return fmt.Sprintf("sum(CASE WHEN (%s) IS NOT NULL AND (%s) IS NOT NULL THEN %s ELSE NULL END)", x, y, v)
		}
		return []string{
			both("(" + x + ")"), both("(" + y + ")"),
			both("(" + x + ")*(" + x + ")"), both("(" + y + ")*(" + y + ")"), both("(" + x + ")*(" + y + ")"),
			fmt.Sprintf("count((%s) + (%s))", x, y),
		}
	}
	return nil
}

// loadPartials is observeAll for a merge part's answer: row r holds this
// call's partialExprs columns, computed by the part over its rows of group
// groupOf[r] (nil = the one global group), and folds into that group's
// accumulators what observing those rows here would have. A part's sum,
// min or max folds like one observed value; a NULL one means the part had
// no values for the group and adds nothing.
func (s *aggState) loadPartials(groupOf []int, cols []*Vector, n int) {
	cols = append([]*Vector(nil), cols...)
	for i, c := range cols {
		if c.Type() != String {
			cols[i] = c.CastFloat64()
		}
	}
	at := func(c, r int) float64 {
		if cols[c].IsNull(r) {
			return 0
		}
		return cols[c].Float64s()[r]
	}
	for r := 0; r < n; r++ {
		g := 0
		if groupOf != nil {
			g = groupOf[r]
		}
		switch s.call.Name {
		case "sum", "min", "max":
			s.observe(g, cols, r)
		case "count":
			s.count[g] += int64(at(0, r))
		case "avg":
			s.sum[g] += at(0, r)
			s.count[g] += int64(at(1, r))
		case "stddev_samp", "stddev", "var_samp", "variance":
			s.sum[g] += at(0, r)
			s.sum2[g] += at(1, r)
			s.count[g] += int64(at(2, r))
		case "corr":
			s.sum[g] += at(0, r)
			s.sumY[g] += at(1, r)
			s.sum2[g] += at(2, r)
			s.sumY2[g] += at(3, r)
			s.sumXY[g] += at(4, r)
			s.count[g] += int64(at(5, r))
		}
	}
}

// partialSQL renders the per-part partial-aggregate query: the group keys
// as gk0.., then every call's partials as p0.., under the statement's WHERE
// and GROUP BY.
func (m *MergeTable) partialSQL(st *SelectStmt, partials [][]string) string {
	var sel []string
	for i, g := range st.GroupBy {
		sel = append(sel, fmt.Sprintf("%s AS gk%d", g.String(), i))
	}
	for _, ps := range partials {
		for _, e := range ps {
			sel = append(sel, fmt.Sprintf("%s AS p%d", e, len(sel)-len(st.GroupBy)))
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
	return sql
}

// partAnswers is what a pushdown's aggregate stage needs besides the union
// of the parts' answers: the answering parts, in part order, and each
// call's partial columns (the plan's partialExprs).
type partAnswers struct {
	parts    []partResult
	partials [][]string
}

// aggregate runs st's aggregate over the parts' answers in union: each
// part's answer is one partial of the engine's own aggregate (buildPartial
// folding it with loadPartials), combinePartials folds the parts in part
// order, and aggFinalize applies HAVING and the select items.
func (pa *partAnswers) aggregate(ec *ExecContext, st *SelectStmt, union *Table, node *PlanNode) (*Table, error) {
	width := len(st.GroupBy)
	for _, ps := range pa.partials {
		width += len(ps)
	}
	if union.NumCols() != width {
		return nil, fmt.Errorf("engine: merge table parts answered %d columns, want %d partials", union.NumCols(), width)
	}
	prep := rewriteAggs(st)
	prep.emptyKeys, prep.emptyArgs = pa.inputs(union.Slice(0, 0), len(st.GroupBy))
	partials := make([]*morselAgg, len(pa.parts))
	lo := 0
	for i, pr := range pa.parts {
		keys, args := pa.inputs(union.Slice(lo, lo+pr.rows), len(st.GroupBy))
		ma, err := buildPartial(prep.aggCalls, keys, args, pr.rows, (*aggState).loadPartials)
		if err != nil {
			return nil, err
		}
		partials[i] = ma
		lo += pr.rows
	}
	mid, _, err := combinePartials(prep, partials, nil)
	if err != nil {
		return nil, err
	}
	ec.charge(mid.ByteSize())
	node.Groups = int64(mid.NumRows())
	return aggFinalize(ec, mid, prep.having, prep.items)
}

// inputs splits a part's answer into its gk* key columns and each call's
// p* columns: what evalInputs is to a batch of input rows.
func (pa *partAnswers) inputs(t *Table, nKeys int) ([]*Vector, [][]*Vector) {
	keys := make([]*Vector, nKeys)
	for i := range keys {
		keys[i] = t.Col(i)
	}
	args := make([][]*Vector, len(pa.partials))
	c := nKeys
	for k, ps := range pa.partials {
		for range ps {
			args[k] = append(args[k], t.Col(c))
			c++
		}
	}
	return keys, args
}
