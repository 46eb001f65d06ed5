package engine

// spilljoin is the disk side of the one hash join (hashJoin), a hybrid
// hash join. The build (right) side splits 16 ways by the top 4 bits of
// the key hash, rowSpiller's depth-0 window, and admit asks the accountant
// about each partition in turn, as the aggregate asks about each batch:
// partitions admitted while the budget holds are indexed and probed in
// memory; the later ones go to run files with the probe (left) rows that
// hash to them, and each such pair is joined on its own, re-split by the
// next 4 hash bits while its build run exceeds half the budget. NULL keys
// never match: their rows are neither charged, indexed nor written, and a
// LEFT JOIN pads its NULL-key rows in memory.
//
// Order reconstruction: every spilled row carries its row index (rid). The
// in-memory join emits rows in ascending (lrid, rrid); each emitted row is
// tagged with mk = (lrid+1)<<32 | (rrid+1) (0 low half for LEFT JOIN
// padding, which never coexists with matches of the same left row). The
// resident pairs and every partition's output run are mk-sorted by
// construction, so a k-way merge by mk reproduces the in-memory order bit
// for bit. The merge is a stream (joinStream): an aggregate over the join
// reads it batch by batch, any other reader materializes it.

import (
	"fmt"
	"io"
	"slices"
)

// joinedSchema is the output schema of a hash join: left columns then
// right columns (both already alias-qualified).
func joinedSchema(left, right *Table) Schema {
	s := append(Schema{}, left.Schema()...)
	return append(s, right.Schema()...)
}

// residentRowBytes is what a resident build row is charged: its key hash,
// its CSR slot and group id, and at most one group's offset and
// group-index slot and reference.
const residentRowBytes = 8 + 4 + 4 + 4 + 16

// joinSpill carries one hash join's fixed state — the two (qualified,
// pushed-filtered) sides and their join keys — which partitions spilled,
// and the accumulated spill statistics.
type joinSpill struct {
	ec          *ExecContext
	left, right *Table
	keys        joinKeys
	jc          JoinClause
	residual    Expr     // ON-clause residual, applied per probe batch
	spill       [16]bool // build partitions sent to run files
	spilled     int64
	leafParts   int64
	groups      int64
	rows        int // joined rows written to outRuns
	outRuns     []string
}

// admit asks the accountant about each build partition in turn, charging
// the non-NULL rows of every partition it keeps residentRowBytes each:
// once the budget is crossed, every later partition that has rows spills.
// Without spilling, or with a side too long for the merge key, every row
// is charged and stays. It returns the bytes charged.
func (js *joinSpill) admit(keys []*Vector) (charged int64) {
	ec := js.ec
	if !ec.spillEnabled() || js.left.NumRows() >= 1<<30 || js.right.NumRows() >= 1<<30 {
		charged = int64(js.right.NumRows()) * residentRowBytes
		ec.charge(charged)
		return charged
	}
	var rows [16]int64
	for _, m := range ec.morselsOf(js.right.NumRows()) {
		hashes, nulls := joinKeyHashes(sliceVecs(keys, m.lo, m.hi), m.hi-m.lo, nil)
		for r, h := range hashes {
			if nulls == nil || !nulls[r] {
				rows[h>>60]++
			}
		}
	}
	for p, n := range rows {
		if js.spill[p] = n > 0 && ec.Acct.OverLimit(); !js.spill[p] {
			ec.charge(n * residentRowBytes)
			charged += n * residentRowBytes
		}
	}
	return charged
}

// route flags the rows of one batch whose non-NULL key hashes into a
// spilled partition, or returns nil when none spilled.
func (js *joinSpill) route(hashes []uint64, nulls []bool) []bool {
	if !slices.Contains(js.spill[:], true) {
		return nil
	}
	out := make([]bool, len(hashes))
	for r, h := range hashes {
		out[r] = js.spill[h>>60] && (nulls == nil || !nulls[r])
	}
	return out
}

// spillRows streams the rows of one side that route flags, morsel by
// morsel, into 16 run files by join-key hash. Rows keep their columns plus
// their row index.
func (js *joinSpill) spillRows(t *Table, keyCols []*Vector, label string) ([16]string, error) {
	ec := js.ec
	sp := &rowSpiller{ec: ec, label: label}
	for _, m := range ec.morselsOf(t.NumRows()) {
		err := ec.interrupted()
		if err == nil {
			hashes, nulls := joinKeyHashes(sliceVecs(keyCols, m.lo, m.hi), m.hi-m.lo, nil)
			seq := make([]int64, m.hi-m.lo)
			for r := range seq {
				seq[r] = int64(m.lo + r)
			}
			err = sp.add(hashes, sliceVecs(t.cols, m.lo, m.hi), seq, js.route(hashes, nulls))
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

// finish joins the spilled partitions: it writes the probe rows that hash
// to them to runs, joins each partition pair with rPaths' build runs,
// and returns the output stream — the resident pairs (lsel, rsel) merged
// with the partitions' output runs.
func (js *joinSpill) finish(lKeyCols []*Vector, rPaths [16]string, lsel, rsel []int32, node *PlanNode) (*joinStream, error) {
	ec := js.ec
	ec.charge(int64(len(lsel)) * 8) // the resident pairs, released as the merge reads them
	lPaths, err := js.spillRows(js.left, lKeyCols, "jl")
	for p := 0; p < 16 && err == nil; p++ {
		err = js.process(lPaths[p], rPaths[p], 0)
	}
	if err != nil {
		return nil, err
	}
	node.Groups += js.groups
	node.SpillParts += js.leafParts
	node.SpillBytes += js.spilled // the query's counters took them per write
	ec.addSpill(0, js.leafParts)
	return &joinStream{paths: js.outRuns, lcols: js.left.cols, rcols: js.right.cols, lsel: lsel, rsel: rsel,
		schema: joinedSchema(js.left, js.right), rows: len(lsel) + js.rows}, nil
}

// process joins one spilled partition pair. A build run still larger
// than half the budget re-partitions both sides by the next 4 hash bits
// (all matches of a row live in its own partition, so the pair recursion
// stays aligned). Otherwise the build run is loaded and indexed like the
// resident partitions (insertion in rrid order, CSR match lists), and the
// probe run streams through it batch by batch: batches arrive in
// ascending lrid and matches come out in ascending rrid, so the emitted
// rows and their merge keys make an mk-sorted output run without a sort.
func (js *joinSpill) process(lp, rp string, depth int) error {
	ec := js.ec
	if lp == "" { // no probe rows: inner and left joins both emit nothing
		if rp != "" {
			ec.removeRun(rp)
		}
		return nil
	}
	if err := ec.interrupted(); err != nil {
		return err
	}
	lw, rw := js.left.NumCols(), js.right.NumCols()
	rCols := append(NewTable(js.right.Schema()).cols, NewVector(Int64)) // no build run: no build rows
	if rp != "" {
		rr, err := ec.openRun(rp)
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
			for p := 0; p < 16 && err == nil; p++ {
				err = js.process(lSub[p], rSub[p], depth+1)
			}
			return err
		}
		var loaded int64
		if rCols, _, loaded, err = ec.loadRun(rr, rp); err != nil {
			return err
		}
		defer ec.release(loaded)
	}
	rKeys := js.keys.of(rCols, js.keys.r)
	ji, err := ec.buildJoinIndex(rKeys, rCols[rw].Len(), [16]bool{}, nil)
	if err != nil {
		return err
	}
	js.groups += int64(ji.index.groups())

	lr, err := ec.openRun(lp)
	if err != nil {
		return err
	}
	schema := joinedSchema(js.left, js.right)
	var ow *runWriter
	for err == nil {
		var vs, out []*Vector
		if vs, err = lr.next(); err == nil {
			err = ec.interrupted()
		}
		if err == nil {
			n := vs[0].Len()
			lKeys := js.keys.of(vs, js.keys.l)
			lHashes, lNulls := joinKeyHashes(lKeys, n, nil)
			lsel, rsel := ji.probe(ji.index.addSource(lKeys), lHashes, lNulls, nil, 0, n)
			lsel, rsel, err = joinPairs(js.jc.Left, js.residual, schema, vs[:lw], rCols[:rw], lsel, rsel, 0, n, nil)
			if err == nil && len(lsel) > 0 {
				out = append(ec.gatherPairs(vs[:lw], rCols[:rw], lsel, rsel), mergeKeys(lsel, rsel, vs[lw].Int64s(), rCols[rw].Int64s()))
				js.rows += len(lsel)
			}
			putSelBuf(lsel)
			putSelBuf(rsel)
		}
		if out != nil && ow == nil {
			ow, err = ec.newRunWriter(fmt.Sprintf("jo-d%d", depth), out)
		}
		if out != nil && err == nil {
			err = ow.write(out)
		}
	}
	if err == io.EOF {
		err = lr.close()
	} else {
		lr.close()
	}
	if err != nil {
		if ow != nil {
			ow.close()
		}
		return err
	}
	ec.removeRun(lp)
	js.leafParts++
	if ow == nil {
		return nil
	}
	js.outRuns = append(js.outRuns, ow.path)
	js.spilled += ow.bytes()
	return ow.close()
}

// mergeKeys tags joined pairs with their merge keys (lrid+1)<<32 |
// (rrid+1), a padded row's right half 0. lrids and rrids map the
// selections to the join inputs' row indexes; nil maps rows to themselves.
func mergeKeys(lsel, rsel []int32, lrids, rrids []int64) *Vector {
	mks := make([]int64, len(lsel))
	for i := range mks {
		l, r := int64(lsel[i]), int64(rsel[i])
		if lrids != nil {
			l = lrids[l]
			if r >= 0 {
				r = rrids[r]
			}
		}
		mks[i] = (l+1)<<32 | (r + 1)
	}
	return NewInt64Vector(mks, nil)
}

// joinStream is a hash join's output when some partition spilled: the
// resident partitions' pairs, still unmaterialized, and the spilled
// partitions' output runs, with the total row count. merge reads the rows
// back in the in-memory join's order, in morsel-sized batches. It is read
// once.
type joinStream struct {
	paths        []string  // spilled partitions' mk-sorted output runs
	lcols, rcols []*Vector // the join's inputs, which the resident pairs index
	lsel, rsel   []int32   // resident output pairs, in mk order
	schema       Schema
	rows         int
}

// merge k-way merges the resident pairs and the output runs back into
// global mk order, handing fn morsel-sized batches along with each
// batch's starting row ordinal. A batch's rows from one input batch are
// collected as a selection vector and gathered column-wise; one more
// gather puts them in merge order. Fully consumed runs are deleted
// eagerly.
func (s *joinStream) merge(ec *ExecContext, fn func(batch *Table, start int64) error) error {
	type head struct {
		next func() ([]*Vector, error) // the input's next batch, io.EOF after its last
		vs   []*Vector
		mks  []int64 // nil once the input is exhausted
		cur  int
		seg  int // this head's segment of the pending batch, -1 = none
	}
	batchRows := ec.morselSize()
	var heads []*head
	open := map[*runReader]bool{}
	defer func() {
		for rr := range open {
			rr.close()
		}
	}()
	if len(s.lsel) > 0 {
		k := 0
		heads = append(heads, &head{cur: -1, next: func() ([]*Vector, error) {
			if k == len(s.lsel) {
				ec.release(int64(len(s.lsel)) * 8)
				return nil, io.EOF
			}
			l, r := s.lsel[k:min(k+batchRows, len(s.lsel))], s.rsel[k:min(k+batchRows, len(s.lsel))]
			k += len(l)
			return append(ec.gatherPairs(s.lcols, s.rcols, l, r), mergeKeys(l, r, nil, nil)), nil
		}})
	}
	for _, p := range s.paths {
		rr, err := ec.openRun(p)
		if err != nil {
			return err
		}
		open[rr] = true
		heads = append(heads, &head{cur: -1, next: func() ([]*Vector, error) {
			vs, err := rr.next()
			if err == io.EOF {
				delete(open, rr)
				if err = rr.close(); err == nil {
					ec.removeRun(p)
					err = io.EOF
				}
			}
			return vs, err
		}})
	}
	advance := func(h *head) error {
		for h.cur++; h.cur >= len(h.mks); h.cur = 0 {
			vs, err := h.next()
			if err == io.EOF {
				h.mks = nil
				return nil
			}
			if err != nil {
				return err
			}
			h.vs, h.mks, h.seg = vs, vs[len(vs)-1].Int64s(), -1
		}
		return nil
	}
	for _, h := range heads {
		if err := advance(h); err != nil {
			return err
		}
	}

	// The pending batch: segs[i] selects rows of one input batch, from[k]
	// is the segment pending row k came from.
	type segment struct {
		vs  []*Vector
		sel []int32
	}
	var segs []segment
	var from []int32
	var start int64
	flush := func() error {
		if len(from) == 0 {
			return nil
		}
		off := make([]int32, len(segs)) // each segment's first row in their concatenation
		for i := 1; i < len(segs); i++ {
			off[i] = off[i-1] + int32(len(segs[i-1].sel))
		}
		order := make([]int32, len(from))
		for k, sg := range from {
			order[k] = off[sg]
			off[sg]++
		}
		cols := make([]*Vector, len(s.schema))
		for j, c := range s.schema {
			parts := make([]*Vector, len(segs))
			for i, sg := range segs {
				parts[i] = sg.vs[j].Gather(sg.sel)
			}
			cols[j] = concatVectors(c.Type, parts, len(from)).Gather(order)
		}
		if err := fn(&Table{schema: s.schema, cols: cols}, start); err != nil {
			return err
		}
		start += int64(len(from))
		segs, from = nil, nil
		for _, h := range heads {
			h.seg = -1
		}
		return ec.interrupted()
	}
	for {
		var best *head
		for _, h := range heads {
			if h.mks != nil && (best == nil || h.mks[h.cur] < best.mks[best.cur]) {
				best = h
			}
		}
		if best == nil {
			break
		}
		if best.seg < 0 {
			best.seg = len(segs)
			segs = append(segs, segment{vs: best.vs})
		}
		segs[best.seg].sel = append(segs[best.seg].sel, int32(best.cur))
		from = append(from, int32(best.seg))
		if len(from) == batchRows {
			if err := flush(); err != nil {
				return err
			}
		}
		if err := advance(best); err != nil {
			return err
		}
	}
	return flush()
}

// table materializes the stream.
func (s *joinStream) table(ec *ExecContext) (*Table, error) {
	var parts []*Table
	err := s.merge(ec, func(b *Table, _ int64) error {
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
	return s.merge(ec, func(b *Table, start int64) error {
		part, sel, err := filterPart(where, b, fnode)
		if err == nil {
			err = fn(i, start, part, sel)
		}
		i++
		return err
	})
}
