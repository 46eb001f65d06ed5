package engine

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mip/internal/obs"
)

// PlanNode is one operator of a query's execution plan. Children are the
// operator's inputs (a scan feeds a filter feeds an aggregate, Postgres
// style), so rendering the root top-down reads in reverse pipeline order.
// When a statement runs with a *QueryStats attached, every node carries
// measured rows in/out, wall time, and the byte size of its materialized
// output; a plain EXPLAIN builds the same shape from catalog metadata
// without executing.
type PlanNode struct {
	Op      string `json:"op"`               // scan, filter, project, join, aggregate, order, limit, merge, part
	Detail  string `json:"detail,omitempty"` // operator-specific: table name, predicate, group keys...
	RowsIn  int64  `json:"rows_in"`
	RowsOut int64  `json:"rows_out"`
	Batches int64  `json:"batches"` // column vectors materialized in the output
	Nanos   int64  `json:"nanos"`
	Bytes   int64  `json:"bytes"` // payload bytes of the materialized output
	// Parallelism is the degree the operator actually fanned out to (0 for
	// operators that ran on the issuing goroutine only: the serial tail).
	Parallelism int `json:"parallelism,omitempty"`
	// Morsels counts the row-range batches processed; concurrent morsel
	// workers accumulate it through AddMorsels (atomically), so EXPLAIN
	// ANALYZE totals stay exact under parallel execution.
	Morsels int64 `json:"morsels,omitempty"`
	// Groups is the number of distinct key tuples the operator's hash table
	// held: groups for an aggregate, build-side keys for a join. Written at
	// the combine quiesce point (single goroutine), zero when not grouping.
	Groups int64 `json:"groups,omitempty"`
	// MemBytes is the net accounted memory the operator charged (its stage
	// delta against the query's MemAccountant); zero when accounting is off.
	MemBytes int64 `json:"mem_bytes,omitempty"`
	// Fused marks an operator that ran inside another operator's morsel
	// loop (e.g. a WHERE evaluated per morsel inside the aggregate) rather
	// than materializing its own output table.
	Fused bool `json:"fused,omitempty"`
	// SpillParts/SpillBytes record how much state the operator shed to disk
	// when the query's memory budget forced it to: the number of spill
	// partitions processed and the run-file bytes written.
	SpillParts int64       `json:"spill_parts,omitempty"`
	SpillBytes int64       `json:"spill_bytes,omitempty"`
	Children   []*PlanNode `json:"children,omitempty"`
}

// AddMorsels counts d processed morsels; safe to call from concurrent
// morsel workers. All other PlanNode fields are written only at stage
// boundaries (single-goroutine quiesce points).
func (n *PlanNode) AddMorsels(d int64) {
	if n == nil {
		return
	}
	atomic.AddInt64(&n.Morsels, d)
}

// Attrs renders the node's measurements as span attributes; the federation
// worker uses it to graft per-operator spans into experiment traces.
func (n *PlanNode) Attrs() map[string]string {
	a := map[string]string{
		"op":       n.Op,
		"rows_in":  strconv.FormatInt(n.RowsIn, 10),
		"rows_out": strconv.FormatInt(n.RowsOut, 10),
		"batches":  strconv.FormatInt(n.Batches, 10),
		"bytes":    strconv.FormatInt(n.Bytes, 10),
	}
	if n.Detail != "" {
		a["detail"] = n.Detail
	}
	if n.Parallelism > 0 {
		a["parallelism"] = strconv.Itoa(n.Parallelism)
	}
	if m := atomic.LoadInt64(&n.Morsels); m > 0 {
		a["morsels"] = strconv.FormatInt(m, 10)
	}
	if n.Groups > 0 {
		a["groups"] = strconv.FormatInt(n.Groups, 10)
	}
	if n.MemBytes > 0 {
		a["mem_bytes"] = strconv.FormatInt(n.MemBytes, 10)
	}
	if n.Fused {
		a["fused"] = "true"
	}
	if n.SpillParts > 0 {
		a["spill_parts"] = strconv.FormatInt(n.SpillParts, 10)
		a["spill_bytes"] = strconv.FormatInt(n.SpillBytes, 10)
	}
	return a
}

// Walk visits the node and every descendant, parents before children.
func (n *PlanNode) Walk(fn func(*PlanNode)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Render renders the tree as indented text lines, root first. With analyzed
// set, each line carries the measured stats bracket; without it only the
// plan shape (plus catalog row counts on scans) is shown.
func (n *PlanNode) Render(analyzed bool) []string {
	var lines []string
	var walk func(n *PlanNode, depth int)
	walk = func(n *PlanNode, depth int) {
		var b strings.Builder
		if depth > 0 {
			b.WriteString(strings.Repeat("  ", depth-1))
			b.WriteString("-> ")
		}
		b.WriteString(n.Op)
		if n.Detail != "" {
			b.WriteString(" ")
			b.WriteString(n.Detail)
		}
		if analyzed {
			fmt.Fprintf(&b, "  (rows_in=%d rows_out=%d batches=%d time=%s bytes=%d",
				n.RowsIn, n.RowsOut, n.Batches, time.Duration(n.Nanos), n.Bytes)
			if n.Parallelism > 0 {
				fmt.Fprintf(&b, " par=%d", n.Parallelism)
			}
			if m := atomic.LoadInt64(&n.Morsels); m > 0 {
				fmt.Fprintf(&b, " morsels=%d", m)
			}
			if n.Groups > 0 {
				fmt.Fprintf(&b, " groups=%d", n.Groups)
			}
			if n.MemBytes > 0 {
				fmt.Fprintf(&b, " mem=%d", n.MemBytes)
			}
			b.WriteString(")")
			if n.SpillParts > 0 {
				fmt.Fprintf(&b, " [spill=%d parts, %.1f MB]",
					n.SpillParts, float64(n.SpillBytes)/(1<<20))
			}
			if n.Fused {
				b.WriteString(" [fused]")
			}
		} else {
			if n.Op == "scan" || n.Op == "part" {
				fmt.Fprintf(&b, "  (rows=%d)", n.RowsOut)
			}
			if n.Parallelism > 1 {
				fmt.Fprintf(&b, "  [par=%d]", n.Parallelism)
			}
		}
		lines = append(lines, b.String())
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return lines
}

// String renders the tree as one newline-joined block.
func (n *PlanNode) String() string { return strings.Join(n.Render(true), "\n") }

// planTable wraps a rendered plan into the one-column result table that
// EXPLAIN statements return.
func planTable(n *PlanNode, analyzed bool) (*Table, error) {
	t := NewTable(Schema{{Name: "plan", Type: String}})
	if n == nil {
		if err := t.AppendRow("(no plan)"); err != nil {
			return nil, err
		}
		return t, nil
	}
	for _, line := range n.Render(analyzed) {
		if err := t.AppendRow(line); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// scanPlanNode describes reading one base table.
func scanPlanNode(name string, t *Table) *PlanNode {
	return &PlanNode{
		Op:      "scan",
		Detail:  name,
		RowsIn:  int64(t.NumRows()),
		RowsOut: int64(t.NumRows()),
		Batches: int64(t.NumCols()),
		Bytes:   t.ByteSize(),
	}
}

// stage profiles one pipeline operator.
type stage struct {
	qs       *QueryStats
	node     *PlanNode
	filter   *PlanNode // fused WHERE evaluated inside this stage's morsel loop
	start    time.Time
	memStart int64 // accounted live bytes when the stage opened
}

// beginStage opens a profiling stage: a new plan node whose input is the
// current plan root (the pipeline is linear; joins and merge fan-ins build
// their multi-child nodes by hand). It also marks the operator as the
// query's current one in the active-query registry.
func (qs *QueryStats) beginStage(op, detail string, rowsIn int) *stage {
	n := &PlanNode{Op: op, Detail: detail, RowsIn: int64(rowsIn)}
	if qs.Root != nil {
		n.Children = append(n.Children, qs.Root)
	}
	qs.Root = n
	if qs.handle != nil {
		label := op
		if detail != "" {
			label += " " + detail
		}
		qs.handle.setOp(label)
	}
	return &stage{qs: qs, node: n, start: time.Now(), memStart: qs.acct.Live()}
}

// setParallelism records the degree the stage fanned out to.
func (s *stage) setParallelism(d int) {
	if d > 1 {
		s.node.Parallelism = d
	}
}

// fuseFilter declares that the WHERE behind fnode (nil = none) runs inside
// this stage's morsel loop. The two then share one wall clock: end books
// the filter's share to the filter and only the rest to this stage.
func (s *stage) fuseFilter(fnode *PlanNode) { s.filter = fnode }

// end closes the stage, recording output shape and folding the elapsed time
// into the record's per-operator nanos. The per-operator totals accumulate
// atomically: merge-table combine stages and per-morsel workers may touch
// the same QueryStats, and atomics keep EXPLAIN ANALYZE totals exact.
func (s *stage) end(out *Table) {
	s.node.Nanos = time.Since(s.start).Nanoseconds()
	if f := s.filter; f != nil {
		// The morsel loop left the filter's share of its wall time on the
		// filter's node; this stage keeps the rest, so the wall time is
		// booked exactly once.
		f.Nanos = min(f.Nanos, s.node.Nanos)
		s.node.Nanos -= f.Nanos
		atomic.AddInt64(&s.qs.OpNanos[obs.OpFilter], f.Nanos)
	}
	if out != nil {
		s.node.RowsOut = int64(out.NumRows())
		s.node.Batches = int64(out.NumCols())
		s.node.Bytes = out.ByteSize()
	}
	if s.qs.acct != nil {
		if d := s.qs.acct.Live() - s.memStart; d > 0 {
			s.node.MemBytes = d
		}
	}
	if op, ok := stageOp[s.node.Op]; ok {
		atomic.AddInt64(&s.qs.OpNanos[op], s.node.Nanos)
	}
}

// stageOp maps a stage's plan-node label to the operator its wall time is
// booked under; stages it does not name book none.
var stageOp = map[string]obs.Op{
	"filter":    obs.OpFilter,
	"aggregate": obs.OpAggregate,
	"order":     obs.OpSort,
	"topk":      obs.OpSort,
	"project":   obs.OpProject,
	"limit":     obs.OpProject,
}

// stageKind names what a selectStage does; its op and detail are only how
// the plan tree labels it (two kinds render as "project").
type stageKind uint8

const (
	stageFilter stageKind = iota
	stageAggregate
	stageTopK
	stageExtend
	stageOrder
	stageProject
	stageLimit
)

// selectStage is one stage of a SELECT's pipeline over a single input
// table.
type selectStage struct {
	kind   stageKind
	op     string // plan-node label
	detail string
	// fused marks a WHERE that runs inside the next stage's morsel loop,
	// and the stage hosting it.
	fused bool
	// par is the fan-out degree predicted from the planned input row count
	// (0 = serial). ORDER BY sorts rows whose count is only known once its
	// input exists; execution records the measured degree instead.
	par int
}

// predictPar is the fan-out predicted over an input of the given row count:
// the configured degree capped by how many morsels the input splits into (a
// 100-row table cannot use 8 workers). Zero (= unannotated) for
// single-morsel inputs.
func (ec *ExecContext) predictPar(rows int) int {
	if d := ec.degreeFor(ec.numMorsels(rows)); d > 1 {
		return d
	}
	return 0
}

// planSelect is the one mapping from (statement, input row count) to the
// stage list: filter? → aggregate·order? | topk | extend·order |
// project, then limit?. EXPLAIN renders the list and runStages walks it,
// so the two cannot drift.
//
// A WHERE over a non-empty input is fused into the stage that follows it:
// that stage's morsel loop selects and gathers each morsel's rows instead
// of materializing a filtered table first. Fusion never changes the morsel
// decomposition — morsels still cover the unfiltered input — so results
// stay bit-identical at every parallelism degree. Empty inputs filter
// unfused so evaluation errors surface identically; so does SELECT *
// without ORDER BY, whose projection passes the filter's output through.
func (ec *ExecContext) planSelect(st *SelectStmt, rows int) []selectStage {
	par := ec.predictPar(rows)
	hasAgg := selHasAgg(st)
	ordered := len(st.OrderBy) > 0
	kPrime := -1
	if st.Limit >= 0 {
		kPrime = st.Limit + st.Offset
	}
	topk := !hasAgg && ordered && kPrime >= 0 && kPrime <= topkMaxCandidates && kPrime < rows
	passThrough := !hasAgg && !ordered && st.Star
	fused := st.Where != nil && rows > 0 && !passThrough
	// A row-wise stage only enters the morsel loop to host a fused WHERE;
	// alone it evaluates whole columns in one serial pass (mapRows).
	rowPar := 0
	if fused {
		rowPar = par
	}

	var out []selectStage
	if st.Where != nil {
		out = append(out, selectStage{stageFilter, "filter", st.Where.String(), fused, par})
	}
	switch {
	case hasAgg:
		out = append(out, selectStage{stageAggregate, "aggregate", aggDetail(st), fused, par})
		if ordered {
			out = append(out, selectStage{stageOrder, "order", orderDetail(st.OrderBy), false, 0})
		}
	case topk:
		// Each morsel keeps only its k' best rows, so the sort never
		// materializes the full ordered table. The limit is folded in.
		return append(out, selectStage{stageTopK, "topk", orderDetail(st.OrderBy) + " " + limitDetail(st), fused, par})
	case ordered:
		out = append(out,
			selectStage{stageExtend, "project", "extend", fused, rowPar},
			selectStage{stageOrder, "order", orderDetail(st.OrderBy), false, par})
	case passThrough:
		out = append(out, selectStage{stageProject, "project", projectDetail(st), false, 0})
	default:
		out = append(out, selectStage{stageProject, "project", projectDetail(st), fused, rowPar})
	}
	if st.Limit >= 0 || st.Offset > 0 {
		out = append(out, selectStage{stageLimit, "limit", limitDetail(st), false, 0})
	}
	return out
}

// explainPlan predicts the plan shape for a statement without executing it.
// It mirrors db.run's dispatch (merge view vs join vs plain scan) for the
// nodes below the pipeline and renders the pipeline itself from the stage
// list execution walks, so EXPLAIN and EXPLAIN ANALYZE agree.
func (c *catalog) explainPlan(ec *ExecContext, st Statement) (*PlanNode, error) {
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("engine: EXPLAIN supports only SELECT statements, got %T", st)
	}
	var cur *PlanNode
	var stages []selectStage
	if m := c.mergeOf(sel); m != nil {
		// Either mode runs the whole WHERE at the parts, and the union's
		// row count is unknown until they answer.
		local := *sel
		local.Where = nil
		stages = ec.planSelect(&local, 0)
		mp := m.plan(nil, sel)
		cur = &PlanNode{Op: "merge", Detail: mp.mode() + " " + m.TableName}
		if len(m.Parts) > 1 {
			cur.Parallelism = len(m.Parts) // part fan-out is one goroutine per part
		}
		for _, p := range m.Parts {
			cur.Children = append(cur.Children, &PlanNode{Op: "part", Detail: p.PartName() + ": " + mp.sql})
		}
	} else {
		base, err := c.table(sel.From)
		if err != nil {
			return nil, err
		}
		baseRows := base.NumRows()
		local := *sel
		if len(sel.Joins) > 0 || sel.FromAlias != "" {
			// Mirror buildJoined: same planner, same join order, same
			// pushed-filter placement, so EXPLAIN shows what will run.
			plan, err := c.planJoins(sel, !ec.NoJoinReorder)
			if err != nil {
				return nil, err
			}
			local.Where = plan.residual
			relNode := func(ri int) *PlanNode {
				r := plan.rels[ri]
				n := scanPlanNode(r.name, r.table)
				if r.pushed != nil {
					n = &PlanNode{Op: "filter", Detail: "pushed " + r.pushed.String(),
						Parallelism: ec.predictPar(r.table.NumRows()), Children: []*PlanNode{n}}
				}
				return n
			}
			cur = relNode(0)
			for _, ji := range plan.order {
				cur = &PlanNode{
					Op:          "join",
					Detail:      joinDetail(sel.Joins[ji]),
					Parallelism: ec.predictPar(baseRows),
					Children:    []*PlanNode{cur, relNode(ji + 1)},
				}
			}
			if plan.reordered {
				cur = &PlanNode{Op: "order", Detail: "restore written join order", Children: []*PlanNode{cur}}
			}
		} else {
			cur = scanPlanNode(sel.From, narrowed(sel, base))
		}
		stages = ec.planSelect(&local, baseRows)
	}
	for _, s := range stages {
		cur = &PlanNode{Op: s.op, Detail: s.detail, Parallelism: s.par, Fused: s.fused, Children: []*PlanNode{cur}}
	}
	return cur, nil
}

// selHasAgg reports whether the SELECT runs through the aggregate stage.
func selHasAgg(st *SelectStmt) bool {
	if len(st.GroupBy) > 0 || st.Having != nil {
		return true
	}
	for _, it := range st.Items {
		if HasAgg(it.Expr) {
			return true
		}
	}
	return false
}

func aggDetail(st *SelectStmt) string {
	if len(st.GroupBy) == 0 {
		return "global"
	}
	keys := make([]string, len(st.GroupBy))
	for i, g := range st.GroupBy {
		keys[i] = g.String()
	}
	return "group by " + strings.Join(keys, ", ")
}

func orderDetail(keys []OrderItem) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k.Expr.String()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return strings.Join(parts, ", ")
}

func projectDetail(st *SelectStmt) string {
	if st.Star {
		return "*"
	}
	parts := make([]string, len(st.Items))
	for i, it := range st.Items {
		if it.Alias != "" {
			parts[i] = it.Alias
		} else {
			parts[i] = exprName(it.Expr)
		}
	}
	s := strings.Join(parts, ", ")
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}

func limitDetail(st *SelectStmt) string {
	s := ""
	if st.Limit >= 0 {
		s = fmt.Sprintf("limit %d", st.Limit)
	}
	if st.Offset > 0 {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("offset %d", st.Offset)
	}
	return s
}

func joinDetail(jc JoinClause) string {
	kind := "inner"
	if jc.Left {
		kind = "left"
	}
	name := jc.Table
	if jc.Alias != "" {
		name += " " + jc.Alias
	}
	return fmt.Sprintf("%s %s on %s", kind, name, jc.On.String())
}
