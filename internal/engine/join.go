package engine

import (
	"fmt"
	"sync/atomic"
	"time"

	"mip/internal/obs"
)

// Hash equi-joins. A SELECT with JOIN clauses first materializes the joined
// relation (qualified column names alias.col), then runs through the usual
// filter/aggregate/order pipeline. Equality conditions on columns drive the
// hash join; any residual ON conditions filter its candidate pairs (joinPairs).

// buildJoined folds every JOIN clause of st into one joined relation,
// executing in the plan's order with its pushed filters applied; the
// caller's filter stage applies the plan's residual WHERE. It plants the
// scan/filter/join subtree that execSelect's stages then chain on top of.
// A grace join's output that feeds the statement's stages stays a stream
// (see source); a later join and the order restore read it materialized.
//
// Reordered execution is provably identical to written order: written-order
// left-deep hash joins emit rows in lexicographic (base row, join-1 row,
// ..., join-k row) order, so tagging each input with a hidden rowid and
// sorting the reordered output by the written-order rowid tuple reproduces
// the written-order result bit for bit.
func buildJoined(ec *ExecContext, st *SelectStmt, plan *joinPlan, qs *QueryStats) (source, error) {
	inputs, nodes, err := joinInputs(ec, plan, qs)
	if err != nil {
		return source{}, err
	}
	cur, curNode := source{t: inputs[0]}, nodes[0]
	for _, ji := range plan.order {
		jc := st.Joins[ji]
		left, err := cur.table(ec)
		if err != nil {
			return source{}, err
		}
		right := inputs[ji+1]
		t0 := time.Now()
		node := &PlanNode{Op: "join", Detail: joinDetail(jc)}
		ec.setOperator("join " + joinDetail(jc))
		if cur, err = hashJoin(ec, left, right, jc, node); err != nil {
			return source{}, err
		}
		node.Nanos = time.Since(t0).Nanoseconds()
		atomic.AddInt64(&qs.OpNanos[obs.OpJoin], node.Nanos)
		node.RowsIn = int64(left.NumRows() + right.NumRows())
		node.RowsOut = int64(cur.rows())
		node.Batches = int64(len(cur.schema()))
		if cur.t != nil {
			node.Bytes = cur.t.ByteSize()
		}
		node.Children = []*PlanNode{curNode, nodes[ji+1]}
		curNode = node
	}
	if plan.reordered {
		t0 := time.Now()
		t, err := cur.table(ec)
		if err == nil {
			t, err = restoreWrittenOrder(ec, t, plan)
		}
		if err != nil {
			return source{}, err
		}
		cur = source{t: t}
		curNode = &PlanNode{
			Op: "order", Detail: "restore written join order",
			RowsIn: int64(t.NumRows()), RowsOut: int64(t.NumRows()),
			Batches: int64(t.NumCols()), Nanos: time.Since(t0).Nanoseconds(),
			Bytes: t.ByteSize(), Children: []*PlanNode{curNode},
		}
		atomic.AddInt64(&qs.OpNanos[obs.OpSort], curNode.Nanos)
	}
	qs.Root = curNode
	return cur, nil
}

// joinInputs loads every relation of the plan the way the join consumes
// it — qualified alias.col names, the planner-pushed filter applied, a
// hidden rowid appended when the order will be restored — along with its
// scan (→ filter) plan node.
func joinInputs(ec *ExecContext, plan *joinPlan, qs *QueryStats) ([]*Table, []*PlanNode, error) {
	inputs := make([]*Table, len(plan.rels))
	nodes := make([]*PlanNode, len(plan.rels))
	for i, r := range plan.rels {
		qt := qualifyTable(r.table, r.alias)
		node := scanPlanNode(r.name, r.table)
		if r.pushed != nil {
			t0 := time.Now()
			fnode := &PlanNode{Op: "filter", Detail: "pushed " + r.pushed.String(), RowsIn: int64(qt.NumRows())}
			ec.setOperator("filter pushed " + r.pushed.String())
			var err error
			if qt, err = ec.filterTable(qt, r.pushed, fnode); err != nil {
				return nil, nil, err
			}
			fnode.Nanos = time.Since(t0).Nanoseconds()
			fnode.RowsOut = int64(qt.NumRows())
			fnode.Batches = int64(qt.NumCols())
			fnode.Bytes = qt.ByteSize()
			fnode.Children = []*PlanNode{node}
			atomic.AddInt64(&qs.OpNanos[obs.OpFilter], fnode.Nanos)
			node = fnode
		}
		if plan.reordered {
			qt = withRowID(qt, i)
		}
		inputs[i] = qt
		nodes[i] = node
	}
	return inputs, nodes, nil
}

// withRowID appends a hidden int64 row-number column $rid<rel> to t. The
// restore sort reads these to put reordered join output back in written
// order; the $ prefix keeps the name outside the user-expressible space.
func withRowID(t *Table, rel int) *Table {
	n := t.NumRows()
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	schema := append(append(Schema{}, t.Schema()...),
		ColumnDef{Name: fmt.Sprintf("$rid%d", rel), Type: Int64})
	cols := make([]*Vector, t.NumCols()+1)
	for i := 0; i < t.NumCols(); i++ {
		cols[i] = t.Col(i)
	}
	cols[t.NumCols()] = NewInt64Vector(ids, nil)
	out, err := NewTableFromVectors(schema, cols)
	if err != nil {
		panic(err) // same lengths by construction
	}
	return out
}

// restoreWrittenOrder sorts the reordered join output by the hidden rowid
// tuple in written relation order — exactly the lexicographic order
// written-order execution emits — then drops the rowid columns and puts
// the column blocks back in written order. Inner-join output holds each
// input-row combination at most once, so the tuple order is total.
func restoreWrittenOrder(ec *ExecContext, t *Table, plan *joinPlan) (*Table, error) {
	execSeq := make([]int, 0, len(plan.rels))
	execSeq = append(execSeq, 0)
	for _, ji := range plan.order {
		execSeq = append(execSeq, ji+1)
	}
	offsets := make([]int, len(plan.rels)) // column-block start per relation
	off := 0
	for _, ri := range execSeq {
		offsets[ri] = off
		off += len(plan.rels[ri].table.Schema()) + 1
	}
	rids := make([]sortKey, len(plan.rels))
	for ri, r := range plan.rels {
		rids[ri] = newSortKey(t.Col(offsets[ri]+len(r.table.Schema())), false)
	}
	idx, err := ec.sortPerm(rids, t.NumRows(), nil)
	if err != nil {
		return nil, err
	}
	sorted := ec.gather(t, idx)
	var schema Schema
	var cols []*Vector
	for ri, r := range plan.rels {
		for c := 0; c < len(r.table.Schema()); c++ {
			schema = append(schema, sorted.Schema()[offsets[ri]+c])
			cols = append(cols, sorted.Col(offsets[ri]+c))
		}
	}
	return NewTableFromVectors(schema, cols)
}

// qualifyTable renames every column to alias.col (vectors are shared, not
// copied).
func qualifyTable(t *Table, alias string) *Table {
	schema := make(Schema, len(t.Schema()))
	cols := make([]*Vector, len(schema))
	for i, c := range t.Schema() {
		schema[i] = ColumnDef{Name: alias + "." + c.Name, Type: c.Type}
		cols[i] = t.Col(i)
	}
	out, err := NewTableFromVectors(schema, cols)
	if err != nil {
		panic(err) // same shapes by construction
	}
	return out
}

// splitOn separates the ON expression into equi-join key pairs and a
// residual predicate.
func splitOn(on Expr, left, right *Table) (lk, rk []string, residual Expr, err error) {
	var conds []Expr
	var flatten func(e Expr)
	flatten = func(e Expr) {
		if b, ok := e.(*Binary); ok && b.Op == "AND" {
			flatten(b.L)
			flatten(b.R)
			return
		}
		conds = append(conds, e)
	}
	flatten(on)
	for _, c := range conds {
		b, ok := c.(*Binary)
		if ok && b.Op == "=" {
			lc, lok := b.L.(*ColRef)
			rc, rok := b.R.(*ColRef)
			if lok && rok {
				lIn, rIn := resolveSide(lc.Name, left, right), resolveSide(rc.Name, left, right)
				switch {
				case lIn == 1 && rIn == 2:
					lk = append(lk, lc.Name)
					rk = append(rk, rc.Name)
					continue
				case lIn == 2 && rIn == 1:
					lk = append(lk, rc.Name)
					rk = append(rk, lc.Name)
					continue
				}
			}
		}
		if residual == nil {
			residual = c
		} else {
			residual = &Binary{Op: "AND", L: residual, R: c}
		}
	}
	if len(lk) == 0 {
		return nil, nil, nil, fmt.Errorf("engine: JOIN requires at least one left=right equality in ON")
	}
	return lk, rk, residual, nil
}

// resolveSide reports which table a column name belongs to: 1=left,
// 2=right, 0=neither/ambiguous.
func resolveSide(name string, left, right *Table) int {
	inL := left.ColByName(name) != nil
	inR := right.ColByName(name) != nil
	switch {
	case inL && !inR:
		return 1
	case inR && !inL:
		return 2
	}
	return 0
}

// joinKeyHashes computes each row's key-tuple hash morsel-parallel via the
// typed kernels, plus a per-row NULL flag (SQL: NULL keys never match, so
// join rows with any NULL key component are excluded from build and probe).
// nulls is nil when no key column can hold NULLs.
func (ec *ExecContext) joinKeyHashes(cols []*Vector, n int, node *PlanNode) (hashes []uint64, nulls []bool) {
	hashes = make([]uint64, n)
	for _, c := range cols {
		if c.valid != nil {
			nulls = make([]bool, n)
			break
		}
	}
	ms := ec.morselsOf(n)
	_ = ec.parallelFor(len(ms), func(i int) error {
		m := ms[i]
		sliced := sliceVecs(cols, m.lo, m.hi)
		hashKeyCols(sliced, m.hi-m.lo, hashes[m.lo:m.hi])
		if nulls != nil {
			for _, c := range sliced {
				if c.valid == nil {
					continue
				}
				for r := 0; r < m.hi-m.lo; r++ {
					if c.IsNull(r) {
						nulls[m.lo+r] = true
					}
				}
			}
		}
		node.AddMorsels(1)
		return nil
	})
	return hashes, nulls
}

// hashJoin performs the (inner or left-outer) equi-join, morsel-parallel:
// key hashes for both sides are computed across the pool, the build-side
// index is inserted serially in row order (it is immutable from then on and
// shared by all probe workers), and the probe fans out over left-side
// morsels, each emitting local selection vectors that are stitched in
// morsel order. Output rows therefore appear in exactly the order the
// serial nested probe produced: left row order, matches in right row order.
func hashJoin(ec *ExecContext, left, right *Table, jc JoinClause, node *PlanNode) (source, error) {
	lk, rk, residual, err := splitOn(jc.On, left, right)
	if err != nil {
		return source{}, err
	}
	jk := newJoinKeys(left, right, lk, rk)
	// Grace hash join: when the estimated build-side + transient footprint
	// cannot fit the query's soft memory budget, partition both sides to
	// disk and join partition-wise instead. The output stays a stream in
	// run files; read back it is bit-identical, including row order.
	est := right.ByteSize() + int64(right.NumRows())*24 + int64(left.NumRows())*8
	if ec.spillEnabled() && ec.Acct.Live()+est > ec.QueryMemLimit && left.NumRows() < 1<<30 && right.NumRows() < 1<<30 {
		js, err := graceHashJoin(ec, left, right, jk, jc, residual, node)
		return source{js: js}, err
	}
	lKeyCols, rKeyCols := jk.of(left.cols, jk.l), jk.of(right.cols, jk.r)
	rHashes, rNulls := ec.joinKeyHashes(rKeyCols, right.NumRows(), node)
	lHashes, lNulls := ec.joinKeyHashes(lKeyCols, left.NumRows(), node)
	ji, err := ec.buildJoinIndex(rKeyCols, rHashes, rNulls)
	if err != nil {
		return source{}, err
	}
	if node != nil {
		node.Groups = int64(ji.index.groups())
	}
	// Charge the join's transient payloads in one shot: both sides' key
	// hashes, the build index's CSR arrays and group map. Released after the
	// output is materialized and they become garbage.
	buildBytes := int64(right.NumRows()+left.NumRows())*8 +
		int64(right.NumRows()+len(ji.off)+len(ji.matchRows))*4 +
		int64(ji.index.groups())*16 // group-index slots/refs, approximate
	ec.charge(buildBytes)

	// Probe side: per-morsel selection vectors into the immutable index
	// (find never mutates, so all probe workers share it), stitched in
	// morsel order.
	probeSrc := ji.index.addSource(lKeyCols)
	ms := ec.morselsOf(left.NumRows())
	if node != nil {
		node.Parallelism = ec.degreeFor(len(ms))
	}
	if len(ms) == 0 {
		ms = []morsel{{}} // evaluate the residual over no rows: its errors must surface
	}
	schema := joinedSchema(left, right)
	type probeOut struct{ lsel, rsel []int32 }
	parts := make([]probeOut, len(ms))
	err = ec.parallelFor(len(ms), func(i int) error {
		lsel, rsel := ji.probe(probeSrc, lHashes, lNulls, ms[i].lo, ms[i].hi)
		lsel, rsel, err := joinPairs(jc.Left, residual, schema, left.cols, right.cols, lsel, rsel, ms[i].lo, ms[i].hi)
		parts[i] = probeOut{lsel, rsel}
		node.AddMorsels(1)
		return err
	})
	if err != nil {
		return source{}, err
	}
	total := 0
	for _, p := range parts {
		total += len(p.lsel)
	}
	lsel := make([]int32, 0, total)
	rsel := make([]int32, 0, total)
	for _, p := range parts {
		lsel = append(lsel, p.lsel...)
		rsel = append(rsel, p.rsel...)
		putSelBuf(p.lsel)
		putSelBuf(p.rsel)
	}

	// Materialize: left columns by plain gather, right columns by outer
	// gather (-1 ⇒ NULL row); columns fan out across the pool.
	lw, rw := left.NumCols(), right.NumCols()
	cols := make([]*Vector, lw+rw)
	_ = ec.parallelFor(lw+rw, func(j int) error {
		if j < lw {
			cols[j] = left.Col(j).Gather(lsel)
		} else {
			cols[j] = right.Col(j - lw).GatherOuter(rsel)
		}
		return nil
	})
	out := &Table{schema: schema, cols: cols}
	ec.charge(out.ByteSize())
	ec.release(buildBytes)
	return source{t: out}, nil
}

// joinPairs finishes the probe of left rows [lo, hi) for both join paths:
// the ON residual keeps the candidate pairs it holds for, then a LEFT JOIN
// pads each left row left without a pair with right row -1, in row order.
// Pairs in and out are selection-pool buffers.
func joinPairs(outer bool, residual Expr, schema Schema, lcols, rcols []*Vector, lsel, rsel []int32, lo, hi int) ([]int32, []int32, error) {
	if residual != nil {
		cols := make([]*Vector, 0, len(schema))
		for _, c := range lcols {
			cols = append(cols, c.Gather(lsel))
		}
		for _, c := range rcols {
			cols = append(cols, c.Gather(rsel))
		}
		keep, err := FilterSel(residual, &Table{schema: schema, cols: cols})
		if err != nil {
			return lsel, rsel, err
		}
		for i, k := range keep { // k ≥ i: compacts in place
			lsel[i], rsel[i] = lsel[k], rsel[k]
		}
		lsel, rsel = lsel[:len(keep)], rsel[:len(keep)]
	}
	if !outer {
		return lsel, rsel, nil
	}
	pl, pr := getSelBuf(len(lsel)+hi-lo), getSelBuf(len(lsel)+hi-lo)
	for k, r := 0, int32(lo); r < int32(hi); r++ {
		if k == len(lsel) || lsel[k] != r {
			pl, pr = append(pl, r), append(pr, -1)
		}
		for ; k < len(lsel) && lsel[k] == r; k++ {
			pl, pr = append(pl, r), append(pr, rsel[k])
		}
	}
	putSelBuf(lsel)
	putSelBuf(rsel)
	return pl, pr, nil
}

// joinKeys locates an equi-join's key columns on both sides. The typed
// kernels compare within one type, so mixed-type key pairs are promoted to
// float64: cross-type numeric equality (int 42 = float 42.0, string "42" =
// int 42) keeps matching as it did under value rendering.
type joinKeys struct {
	l, r    []int  // key column positions in the left / right table
	promote []bool // per pair: the sides' types differ
}

func newJoinKeys(left, right *Table, lk, rk []string) joinKeys {
	jk := joinKeys{l: make([]int, len(lk)), r: make([]int, len(lk)), promote: make([]bool, len(lk))}
	for i := range lk {
		jk.l[i], jk.r[i] = left.colIndex(lk[i]), right.colIndex(rk[i])
		jk.promote[i] = left.Col(jk.l[i]).Type() != right.Col(jk.r[i]).Type()
	}
	return jk
}

// of picks the key vectors out of one side's columns — the whole side or
// one run batch of it; promotion is elementwise, so per-batch casts hash
// identically to whole-side casts. kidx is jk.l or jk.r.
func (jk joinKeys) of(cols []*Vector, kidx []int) []*Vector {
	kc := make([]*Vector, len(kidx))
	for i, ci := range kidx {
		kc[i] = cols[ci]
		if jk.promote[i] {
			kc[i] = kc[i].CastFloat64()
		}
	}
	return kc
}

// joinIndex is a hash join's build side: the distinct key tuples in
// first-appearance order, each with its rows laid out in row order (CSR
// form), so a probe emits a key's matches in build-row order. It is
// immutable once built and shared by all probe workers.
type joinIndex struct {
	index     *groupIndex
	off       []int32 // matchRows[off[g]:off[g+1]] are key g's build rows
	matchRows []int32
}

// buildJoinIndex is the join-build kernel: it indexes the build side's key
// tuples serially in row order. SQL NULL keys never match, so rows flagged
// in nulls (nil = none) stay out of the index. The in-memory join builds
// over the whole right table, a grace-join leaf over one loaded partition.
// The loop polls for cancellation at batch-size strides, so a killed query
// aborts mid-build.
func (ec *ExecContext) buildJoinIndex(keys []*Vector, hashes []uint64, nulls []bool) (*joinIndex, error) {
	n := len(hashes)
	index := newGroupIndex(n)
	src := index.addSource(keys)
	groupOf := make([]int32, n)
	for r := range groupOf {
		if r&4095 == 0 {
			if err := ec.interrupted(); err != nil {
				return nil, err
			}
		}
		if nulls != nil && nulls[r] {
			groupOf[r] = -1
			continue
		}
		groupOf[r] = index.insert(hashes[r], src, int32(r))
	}
	groups := index.groups()
	off := make([]int32, groups+1)
	for _, g := range groupOf {
		if g >= 0 {
			off[g+1]++
		}
	}
	for g := 0; g < groups; g++ {
		off[g+1] += off[g]
	}
	matchRows := make([]int32, off[groups])
	cursor := append([]int32(nil), off[:groups]...)
	for r, g := range groupOf {
		if g >= 0 {
			matchRows[cursor[g]] = int32(r)
			cursor[g]++
		}
	}
	return &joinIndex{index: index, off: off, matchRows: matchRows}, nil
}

// probe looks rows [lo, hi) of probe source src up in the index and
// returns the matches as parallel selection vectors: probe rows in row
// order, each with its build rows in build-row order (joinPairs applies the
// residual and the LEFT JOIN padding). The vectors come from the
// selection-buffer pool; the caller returns them.
func (ji *joinIndex) probe(src int32, hashes []uint64, nulls []bool, lo, hi int) (lsel, rsel []int32) {
	lsel, rsel = getSelBuf(hi-lo), getSelBuf(hi-lo)
	for r := lo; r < hi; r++ {
		g := int32(-1)
		if nulls == nil || !nulls[r] {
			g = ji.index.find(hashes[r], src, int32(r))
		}
		if g >= 0 {
			for _, br := range ji.matchRows[ji.off[g]:ji.off[g+1]] {
				lsel = append(lsel, int32(r))
				rsel = append(rsel, br)
			}
		}
	}
	return lsel, rsel
}
