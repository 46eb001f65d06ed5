package engine

// spilljoin implements the disk-backed (grace) hash join. When the
// estimated build + output footprint of a hash join cannot fit the
// query's soft memory budget, both sides are hash-partitioned to run
// files by their join-key hash, each partition pair is joined
// independently (build the small side, stream the probe side), and the
// per-partition outputs are merged back into the exact row order the
// in-memory join produces. The sides arrive narrowed to the columns the
// statement reads (joinPlan.narrow): partitions and runs carry only those.
//
// Order reconstruction: every spilled row carries its original row index
// (rid). The in-memory join emits rows in (left row order, matches in
// right row order) — i.e. ascending (lrid, rrid). Each emitted row is
// tagged with a merge key mk = (lrid+1)<<32 | (rrid+1) (0 low half for
// LEFT JOIN outer rows, which never coexist with matches of the same left
// row); partition outputs are mk-sorted by construction, so a k-way merge
// by mk reproduces the materialized order bit for bit.
//
// The merged output is a stream (joinStream). A grouped or global
// aggregate over the join reads it batch by batch through the same
// operator that aggregates a table's morsels, so the joined relation is
// never materialized; any other reader materializes it. Unlike the
// aggregate, the join decides up front: its in-memory path must build the
// whole right side's index before it emits a row, so there is no partial
// work to keep once the budget is crossed, and the choice rests on the
// one estimate made from the loaded inputs.

import (
	"fmt"
	"io"
)

// joinedSchema is the output schema of a hash join: left columns then
// right columns (both already alias-qualified).
func joinedSchema(left, right *Table) Schema {
	s := append(Schema{}, left.Schema()...)
	return append(s, right.Schema()...)
}

// joinSpill carries one grace join's fixed state — the two (qualified,
// pushed-filtered) sides and their join keys — and the accumulated spill
// statistics.
type joinSpill struct {
	ec          *ExecContext
	left, right *Table
	keys        joinKeys
	jc          JoinClause
	residual    Expr // ON-clause residual, applied per probe batch
	spilled     int64
	leafParts   int64
	groups      int64
	rows        int // joined rows written to outRuns
	outRuns     []string
}

// partitionSide streams one side morsel-by-morsel into 16 run files keyed
// by join-key hash. Rows keep their original columns plus their global
// row index; NULL-key rows route by their (deterministic) hash so each
// appears in exactly one partition.
func (js *joinSpill) partitionSide(t *Table, keyCols []*Vector, label string) ([16]string, error) {
	ec := js.ec
	sp := &rowSpiller{ec: ec, label: label}
	for _, m := range ec.morselsOf(t.NumRows()) {
		err := ec.interrupted()
		if err == nil {
			seq := make([]int64, m.hi-m.lo)
			for r := range seq {
				seq[r] = int64(m.lo + r)
			}
			err = sp.add(sliceVecs(keyCols, m.lo, m.hi), sliceVecs(t.cols, m.lo, m.hi), seq, m.hi-m.lo)
		}
		if err != nil {
			sp.close()
			return [16]string{}, err
		}
	}
	paths, bytes, err := sp.close()
	js.spilled += bytes
	return paths, err
}

// process joins one partition pair. A build side still larger than half
// the budget re-partitions both sides by the next 4 hash bits (all
// matches of a row live in its own partition, so the pair recursion stays
// aligned); otherwise the pair is joined directly.
func (js *joinSpill) process(lp, rp string, depth int) error {
	ec := js.ec
	if lp == "" {
		// No probe rows: inner and left joins both emit nothing.
		if rp != "" {
			ec.removeRun(rp)
		}
		return nil
	}
	if err := ec.interrupted(); err != nil {
		return err
	}
	var rr *runReader
	if rp != "" {
		var err error
		rr, err = ec.openRun(rp)
		if err != nil {
			return err
		}
		if rr.size > ec.QueryMemLimit/2 && depth < maxSpillDepth {
			rSub, bytes, err := ec.respill(rr, rp, "jr", depth+1, func(vs []*Vector) []*Vector { return js.keys.of(vs, js.keys.r) })
			js.spilled += bytes
			if err != nil {
				return err
			}
			lr, err := ec.openRun(lp)
			if err != nil {
				return err
			}
			lSub, bytes, err := ec.respill(lr, lp, "jl", depth+1, func(vs []*Vector) []*Vector { return js.keys.of(vs, js.keys.l) })
			js.spilled += bytes
			if err != nil {
				return err
			}
			for p := 0; p < 16; p++ {
				if err := js.process(lSub[p], rSub[p], depth+1); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return js.leaf(lp, rr, rp, depth)
}

// leaf joins one partition pair directly: load the build (right) side,
// index it exactly like the in-memory join (insertion in rrid order, CSR
// match lists), then stream the probe (left) side batch by batch, writing
// emitted rows + merge keys to an mk-sorted output run.
func (js *joinSpill) leaf(lp string, rr *runReader, rp string, depth int) error {
	ec := js.ec
	lw, rw := js.left.NumCols(), js.right.NumCols()
	schema := joinedSchema(js.left, js.right)

	var rCols []*Vector
	rTotal := 0
	if rr != nil {
		var loaded int64
		var err error
		if rCols, rTotal, loaded, err = ec.loadRun(rr, rp); err != nil {
			return err
		}
		defer ec.release(loaded)
	}
	if rCols == nil { // no right run: an empty build side plus its rid column
		rCols = append(NewTable(js.right.Schema()).cols, NewVector(Int64))
	}
	rrids := rCols[rw].Int64s()

	// Build over the loaded rows (loaded order = ascending rrid) with the
	// in-memory join's kernel.
	rKeys := js.keys.of(rCols, js.keys.r)
	rHashes, rNulls := ec.joinKeyHashes(rKeys, rTotal, nil)
	ji, err := ec.buildJoinIndex(rKeys, rHashes, rNulls)
	if err != nil {
		return err
	}
	js.groups += int64(ji.index.groups())

	// Probe: left run batches arrive in ascending lrid, matches come out in
	// ascending rrid, so the output run is mk-sorted without any sort.
	lr, err := ec.openRun(lp)
	if err != nil {
		return err
	}
	var ow *runWriter
	fail := func(err error) error {
		lr.close()
		if ow != nil {
			ow.close()
		}
		return err
	}
	for {
		vs, err := lr.next()
		if err == io.EOF {
			break
		}
		if err == nil {
			err = ec.interrupted()
		}
		if err != nil {
			return fail(err)
		}
		n := vs[0].Len()
		lrids := vs[lw].Int64s()
		lKeys := js.keys.of(vs, js.keys.l)
		lHashes, lNulls := ec.joinKeyHashes(lKeys, n, nil)
		lsel, rsel := ji.probe(ji.index.addSource(lKeys), lHashes, lNulls, 0, n)
		lsel, rsel, err = joinPairs(js.jc.Left, js.residual, schema, vs[:lw], rCols[:rw], lsel, rsel, 0, n)
		if err != nil || len(lsel) == 0 {
			putSelBuf(lsel)
			putSelBuf(rsel)
			if err != nil {
				return fail(err)
			}
			continue
		}
		outCols := make([]*Vector, lw+rw+1)
		for j := 0; j < lw; j++ {
			outCols[j] = vs[j].Gather(lsel)
		}
		for j := 0; j < rw; j++ {
			outCols[lw+j] = rCols[j].GatherOuter(rsel)
		}
		mks := make([]int64, len(lsel))
		for i := range mks {
			mk := (lrids[lsel[i]] + 1) << 32
			if rsel[i] >= 0 {
				mk |= rrids[rsel[i]] + 1
			}
			mks[i] = mk
		}
		putSelBuf(lsel)
		putSelBuf(rsel)
		outCols[lw+rw] = NewInt64Vector(mks, nil)
		js.rows += len(mks)
		if ow == nil {
			ow, err = ec.newRunWriter(fmt.Sprintf("jo-d%d", depth), outCols)
			if err != nil {
				return fail(err)
			}
		}
		if err := ow.write(outCols); err != nil {
			return fail(err)
		}
	}
	if err := lr.close(); err != nil {
		if ow != nil {
			ow.close()
		}
		return err
	}
	ec.removeRun(lp)
	js.leafParts++
	if ow != nil {
		js.outRuns = append(js.outRuns, ow.path)
		js.spilled += ow.bytes()
		if err := ow.close(); err != nil {
			return err
		}
	}
	return nil
}

// mergeJoinRuns k-way merges mk-sorted output runs back into global mk
// order, flushing batchRows-row batches to fn along with the batch's
// starting row ordinal. Fully consumed runs are deleted eagerly.
func mergeJoinRuns(ec *ExecContext, paths []string, schema Schema, batchRows int, fn func(batch *Table, start int64) error) error {
	type head struct {
		rr   *runReader
		path string
		vs   []*Vector
		mks  []int64
		cur  int
	}
	var heads []*head
	cleanup := func() {
		for _, h := range heads {
			if h.rr != nil {
				h.rr.close()
			}
		}
	}
	advance := func(h *head) error {
		h.cur++
		if h.cur < len(h.mks) {
			return nil
		}
		for {
			vs, err := h.rr.next()
			if err == io.EOF {
				cerr := h.rr.close()
				h.rr, h.vs, h.mks, h.cur = nil, nil, nil, 0
				if cerr != nil {
					return cerr
				}
				ec.removeRun(h.path)
				return nil
			}
			if err != nil {
				return err
			}
			if vs[0].Len() == 0 {
				continue
			}
			h.vs, h.mks, h.cur = vs, vs[len(vs)-1].Int64s(), 0
			return nil
		}
	}
	for _, p := range paths {
		rr, err := ec.openRun(p)
		if err != nil {
			cleanup()
			return err
		}
		h := &head{rr: rr, path: p, cur: -1}
		heads = append(heads, h)
		if err := advance(h); err != nil {
			cleanup()
			return err
		}
	}
	ncols := len(schema)
	newBuilders := func() []*Vector {
		bs := make([]*Vector, ncols)
		for j := range bs {
			bs[j] = NewVector(schema[j].Type)
		}
		return bs
	}
	builders := newBuilders()
	rows := 0
	var start int64
	flush := func() error {
		if rows == 0 {
			return nil
		}
		bt, err := NewTableFromVectors(schema, builders)
		if err != nil {
			return err
		}
		if err := fn(bt, start); err != nil {
			return err
		}
		start += int64(rows)
		builders = newBuilders()
		rows = 0
		return ec.interrupted()
	}
	for {
		var best *head
		for _, h := range heads {
			if h.mks == nil {
				continue
			}
			if best == nil || h.mks[h.cur] < best.mks[best.cur] {
				best = h
			}
		}
		if best == nil {
			break
		}
		for j := 0; j < ncols; j++ {
			if err := appendKeyRow(builders[j], best.vs[j], best.cur); err != nil {
				cleanup()
				return err
			}
		}
		rows++
		if rows == batchRows {
			if err := flush(); err != nil {
				cleanup()
				return err
			}
		}
		if err := advance(best); err != nil {
			cleanup()
			return err
		}
	}
	return flush()
}

// graceHashJoin is hashJoin's disk-backed path: it partitions both sides,
// joins each partition pair and leaves the output in mk-sorted runs. Read
// back, the stream is the in-memory join's output (rows, order, float
// bits); peak memory is bounded by partition size instead of build +
// output size.
func graceHashJoin(ec *ExecContext, left, right *Table, jk joinKeys, jc JoinClause, residual Expr, node *PlanNode) (*joinStream, error) {
	js := &joinSpill{ec: ec, left: left, right: right, keys: jk, jc: jc, residual: residual}
	lPaths, err := js.partitionSide(left, jk.of(left.cols, jk.l), "jl")
	if err != nil {
		return nil, err
	}
	rPaths, err := js.partitionSide(right, jk.of(right.cols, jk.r), "jr")
	if err != nil {
		return nil, err
	}
	for p := 0; p < 16; p++ {
		if err := js.process(lPaths[p], rPaths[p], 0); err != nil {
			return nil, err
		}
	}
	if node != nil { // spilled bytes reached the query's counters per write
		node.Groups = js.groups
		node.SpillParts += js.leafParts
		node.SpillBytes += js.spilled
	}
	ec.addSpill(0, js.leafParts)
	return &joinStream{paths: js.outRuns, schema: joinedSchema(left, right), rows: js.rows}, nil
}

// joinStream is a grace join's output still in its run files, with its
// row count: mergeJoinRuns reads the rows back in the in-memory join's
// order, in morsel-sized batches. It is read once.
type joinStream struct {
	paths  []string
	schema Schema
	rows   int
}

// table materializes the stream.
func (s *joinStream) table(ec *ExecContext) (*Table, error) {
	var parts []*Table
	err := mergeJoinRuns(ec, s.paths, s.schema, ec.morselSize(), func(b *Table, _ int64) error {
		parts = append(parts, b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ec.concatTables(s.schema, parts)
}

// batches is source.batches for the stream: its merged batches, serially
// and in order. They cut the joined rows exactly where the morsels of the
// materialized join would.
func (s *joinStream) batches(ec *ExecContext, where Expr, fnode *PlanNode, fn func(i int, start int64, part *Table, sel []int32) error) error {
	i := 0
	return mergeJoinRuns(ec, s.paths, s.schema, ec.morselSize(), func(b *Table, start int64) error {
		part, sel, err := filterPart(where, b, fnode)
		if err == nil {
			err = fn(i, start, part, sel)
		}
		i++
		return err
	})
}
