package engine

import (
	"fmt"
	"slices"
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
// A join of several passes hands the statement's stages a stream (see source);
// a later join and the order restore read it materialized.
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
	ids := make([]int64, t.NumRows())
	for i := range ids {
		ids[i] = int64(i)
	}
	return &Table{
		schema: append(slices.Clone(t.schema), ColumnDef{Name: fmt.Sprintf("$rid%d", rel), Type: Int64}),
		cols:   append(slices.Clone(t.cols), NewInt64Vector(ids, nil)),
	}
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
	var rids []sortKey
	for ri, r := range plan.rels {
		rids = appendSortKey(rids, t.Col(offsets[ri]+len(r.table.Schema())), false)
	}
	idx, err := ec.sortPerm(rids, t.NumRows(), nil)
	if err != nil {
		return nil, err
	}
	sorted, err := ec.gather(t, idx)
	if err != nil {
		return nil, err
	}
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
	for i, c := range t.Schema() {
		schema[i] = ColumnDef{Name: alias + "." + c.Name, Type: c.Type}
	}
	return &Table{schema: schema, cols: slices.Clone(t.cols)}
}

// splitOn separates the ON expression into equi-join key pairs and a
// residual predicate.
func splitOn(on Expr, left, right *Table) (lk, rk []string, residual Expr, err error) {
	for _, c := range splitConjuncts(on) {
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
		residual = andExpr(residual, c)
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

// joinKeyHashes computes each of n rows' key-tuple hash via the typed
// kernels, plus a per-row NULL flag (SQL: NULL keys never match, so join
// rows with any NULL key component are excluded from build and probe).
// nulls is nil when no key column can hold NULLs. The join hashes one
// morsel or run batch at a time; node (optional) counts it.
func joinKeyHashes(cols []*Vector, n int, node *PlanNode) (hashes []uint64, nulls []bool) {
	hashes = make([]uint64, n)
	hashKeyCols(cols, n, hashes)
	for _, c := range cols {
		if c.valid == nil {
			continue
		}
		if nulls == nil {
			nulls = make([]bool, n)
		}
		for r := 0; r < n; r++ {
			nulls[r] = nulls[r] || c.IsNull(r)
		}
	}
	node.AddMorsels(1)
	return hashes, nulls
}

// hashJoin performs the (inner or left-outer) equi-join, morsel-parallel:
// the build-side index is inserted serially in row order (it is immutable
// from then on and shared by all probe workers), and the probe fans out
// over left-side morsels, each hashing its keys and emitting local
// selection vectors that are stitched in morsel order. Output rows
// therefore appear in exactly the order the serial nested probe produced:
// left row order, matches in right row order. With spilling available the
// build side is joined in as many passes as the budget needs
// (spilljoin.go), and the output of more than one is a stream merging
// their pairs back into that order.
func hashJoin(ec *ExecContext, left, right *Table, jc JoinClause, node *PlanNode) (source, error) {
	lk, rk, residual, err := splitOn(jc.On, left, right)
	if err != nil {
		return source{}, err
	}
	keys := newJoinKeys(left, right, lk, rk)
	hj := &hashJoiner{ec: ec, left: left, right: right, lkeys: keys.of(left.cols, keys.l), rkeys: keys.of(right.cols, keys.r),
		outer: jc.Left, residual: residual, schema: joinedSchema(left, right), node: node}
	node.Parallelism = ec.degreeFor(ec.numMorsels(left.NumRows()))
	units, err := hj.units()
	if err != nil {
		return source{}, err
	}
	var s *joinStream
	for i := 0; i < len(units); {
		end, rows, parts := hj.admit(units, i)
		charged := int64(rows) * residentRowBytes
		if i > 0 {
			node.SpillParts += int64(parts)
		}
		lo, hi := units[i].lo, units[end-1].hi
		lsel, rsel, err := hj.pass(lo, hi, rows, i == 0)
		if err != nil {
			return source{}, err
		}
		if i == 0 && end == len(units) { // one pass: the output is a table
			out := &Table{schema: hj.schema, cols: ec.gatherPairs(left.cols, right.cols, lsel, rsel)}
			ec.charge(out.ByteSize())
			ec.release(charged)
			return source{t: out}, nil
		}
		ec.release(charged)
		if s == nil {
			s = &joinStream{lkeys: hj.lkeys, lcols: left.cols, rcols: right.cols,
				passOf: make([]uint16, 1<<prefixBits), schema: hj.schema}
		}
		if err := s.add(ec, lo, hi, lsel, rsel, node); err != nil {
			return source{}, err
		}
		i = end
	}
	ec.addSpill(0, node.SpillParts)
	return source{js: s}, nil
}

// hashJoiner is one hash join's fixed state: its (qualified,
// pushed-filtered) sides, their key columns and the ON residual.
type hashJoiner struct {
	ec           *ExecContext
	left, right  *Table
	lkeys, rkeys []*Vector
	outer        bool // LEFT JOIN
	residual     Expr // ON-clause residual, applied per probe morsel
	schema       Schema
	node         *PlanNode
}

// pass joins the build rows whose key-hash prefix lies in [lo, hi) — rows
// of them — with the left rows whose keys hash there and, in the first
// pass, the NULL-key left rows a LEFT JOIN pads. It returns the pairs in
// (lrid, rrid) order: per-morsel selection vectors into the immutable
// index (find never mutates, so all probe workers share it), stitched in
// morsel order.
func (hj *hashJoiner) pass(lo, hi, rows int, first bool) (lsel, rsel []int32, err error) {
	ec, left, right := hj.ec, hj.left, hj.right
	ji, err := ec.buildJoinIndex(hj.rkeys, right.NumRows(), lo, hi, rows, hj.node)
	if err != nil {
		return nil, nil, err
	}
	hj.node.Groups += int64(ji.index.groups())
	probeSrc := ji.index.addSource(hj.lkeys)
	ms := ec.morselsOf(left.NumRows())
	if len(ms) == 0 {
		ms = []morsel{{}} // evaluate the residual over no rows: its errors must surface
	}
	lsels, rsels := make([][]int32, len(ms)), make([][]int32, len(ms))
	err = ec.parallelFor(len(ms), func(i int) error {
		mlo, mhi := ms[i].lo, ms[i].hi
		hashes, nulls := joinKeyHashes(sliceVecs(hj.lkeys, mlo, mhi), mhi-mlo, hj.node)
		var skip []bool // rows another pass joins
		if lo > 0 || hi < 1<<prefixBits {
			skip = make([]bool, len(hashes))
			for r, h := range hashes {
				if nulls != nil && nulls[r] {
					skip[r] = !first
				} else {
					skip[r] = prefixOf(h) < lo || prefixOf(h) >= hi
				}
			}
		}
		lsel, rsel := ji.probe(probeSrc, hashes, nulls, skip, mlo, mhi)
		var err error
		lsels[i], rsels[i], err = joinPairs(hj.outer, hj.residual, hj.schema, left.cols, right.cols, lsel, rsel, mlo, mhi, skip)
		hj.node.AddMorsels(1)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	lsel, rsel = slices.Concat(lsels...), slices.Concat(rsels...)
	for i := range lsels {
		putSelBuf(lsels[i])
		putSelBuf(rsels[i])
	}
	return lsel, rsel, nil
}

// gatherPairs materializes joined pairs: the left columns by plain gather,
// the right columns by outer gather (-1 ⇒ NULL row); columns fan out
// across the pool.
func (ec *ExecContext) gatherPairs(lcols, rcols []*Vector, lsel, rsel []int32) []*Vector {
	lw := len(lcols)
	cols := make([]*Vector, lw+len(rcols), lw+len(rcols)+1)
	_ = ec.parallelFor(len(cols), func(j int) error {
		if j < lw {
			cols[j] = lcols[j].Gather(lsel)
		} else {
			cols[j] = rcols[j-lw].GatherOuter(rsel)
		}
		return nil
	})
	return cols
}

// joinPairs finishes the probe of left rows [lo, hi): the ON residual
// keeps the candidate pairs it holds for, then a LEFT JOIN pads each left
// row left without a pair with right row -1, in row order — except rows
// flagged in skip (indexed from lo, nil = none), which another pass joins
// and pads. Pairs in and out are selection-pool buffers.
func joinPairs(outer bool, residual Expr, schema Schema, lcols, rcols []*Vector, lsel, rsel []int32, lo, hi int, skip []bool) ([]int32, []int32, error) {
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
		if (k == len(lsel) || lsel[k] != r) && (skip == nil || !skip[r-int32(lo)]) {
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

// of picks the key vectors out of one side's columns, promoted where the
// pair's types differ. kidx is jk.l or jk.r.
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

// buildJoinIndex is the join-build kernel: it hashes the build side's
// key tuples morsel by morsel and indexes, serially in row order, the rows
// whose key-hash prefix lies in [lo, hi) (rows of them: a size hint). SQL
// NULL keys never match, so their rows stay out of the index. The loop
// polls for cancellation per morsel, so a killed query aborts mid-build.
func (ec *ExecContext) buildJoinIndex(keys []*Vector, n, lo, hi, rows int, node *PlanNode) (*joinIndex, error) {
	index := newGroupIndex(rows)
	src := index.addSource(keys)
	rids, gids := make([]int32, 0, rows), make([]int32, 0, rows) // indexed rows, their groups
	for _, m := range ec.morselsOf(n) {
		if err := ec.interrupted(); err != nil {
			return nil, err
		}
		hashes, nulls := joinKeyHashes(sliceVecs(keys, m.lo, m.hi), m.hi-m.lo, node)
		for i, h := range hashes {
			if (nulls == nil || !nulls[i]) && prefixOf(h) >= lo && prefixOf(h) < hi {
				rids = append(rids, int32(m.lo+i))
				gids = append(gids, index.insert(h, src, int32(m.lo+i)))
			}
		}
	}
	groups := index.groups()
	off := make([]int32, groups+1)
	for _, g := range gids {
		off[g+1]++
	}
	for g := 0; g < groups; g++ {
		off[g+1] += off[g]
	}
	matchRows := make([]int32, len(rids))
	cursor := append([]int32(nil), off[:groups]...)
	for i, g := range gids {
		matchRows[cursor[g]] = rids[i]
		cursor[g]++
	}
	return &joinIndex{index: index, off: off, matchRows: matchRows}, nil
}

// probe looks rows [lo, hi) of probe source src up in the index and
// returns the matches as parallel selection vectors: probe rows in row
// order, each with its build rows in build-row order (joinPairs applies the
// residual and the LEFT JOIN padding). hashes, nulls and skip hold rows
// [lo, hi); rows flagged in nulls or skip (nil = none) are not looked up.
// The vectors come from the selection-buffer pool; the caller returns them.
func (ji *joinIndex) probe(src int32, hashes []uint64, nulls, skip []bool, lo, hi int) (lsel, rsel []int32) {
	lsel, rsel = getSelBuf(hi-lo), getSelBuf(hi-lo)
	for r := lo; r < hi; r++ {
		g := int32(-1)
		if (nulls == nil || !nulls[r-lo]) && (skip == nil || !skip[r-lo]) {
			g = ji.index.find(hashes[r-lo], src, int32(r))
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
