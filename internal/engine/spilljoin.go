package engine

// spilljoin is the budget side of the one hash join (hashJoin), a hybrid
// hash join whose inputs are resident tables, so the join spends its
// budget on its hash index and writes nothing but output. Build (right)
// rows are counted by the top 12 bits of their key hash; a unit is a
// 16th of that range (the top 4 bits), split by the next 4 bits, down to
// one 12-bit prefix, while its index would exceed half the budget. The
// units, in hash order, are joined in passes: a pass asks the accountant
// about each next unit in turn, as the aggregate asks about each batch,
// admits at least one, indexes the build rows of those it admitted and
// probes the left rows whose key hash falls in them. The first pass is
// the only one when everything fits. NULL keys never match: their rows
// are neither counted nor indexed, and the first pass pads them for a
// LEFT JOIN.
//
// Order reconstruction: a pass emits its pairs in ascending (lrid, rrid),
// as merge keys mk = (lrid+1)<<32 | (rrid+1) (0 low half for LEFT JOIN
// padding, which never coexists with matches of the same left row). They
// stay in memory while the kept pairs hold half the budget; past that a
// pass's pairs go to a run file. Passes cover contiguous ranges of hash
// prefixes, so a left row's prefix names the one pass holding all its
// pairs: joinStream walks the left rows in order, takes each row's pairs
// from that pass and gathers the output batches from the resident inputs,
// reproducing the in-memory order bit for bit. An aggregate over the join
// reads the stream batch by batch, any other reader materializes it.

import (
	"errors"
	"io"
)

// prefixBits is how many top key-hash bits name a unit: 4 per split
// level, maxSpillDepth levels below the first.
const prefixBits = 4 * (maxSpillDepth + 1)

// prefixOf returns a key hash's top prefixBits bits.
func prefixOf(h uint64) int { return int(h >> (64 - prefixBits)) }

// joinedSchema is the output schema of a hash join: left columns then
// right columns (both already alias-qualified).
func joinedSchema(left, right *Table) Schema {
	s := append(Schema{}, left.Schema()...)
	return append(s, right.Schema()...)
}

// residentRowBytes is what an indexed build row is charged: its key hash,
// its CSR slot and group id, and at most one group's offset and
// group-index slot and reference.
const residentRowBytes = 8 + 4 + 4 + 4 + 16

// span is a range [lo, hi) of key-hash prefixes and the non-NULL build
// rows whose keys hash into it.
type span struct{ lo, hi, rows int }

// units splits the build side into the units passes admit, in hash
// order. Without spilling, or with a side too long for the merge key,
// there is one unit of every row.
func (hj *hashJoiner) units() ([]span, error) {
	ec, n := hj.ec, hj.right.NumRows()
	if !ec.spillEnabled() || hj.left.NumRows() >= 1<<30 || n >= 1<<30 {
		return []span{{0, 1 << prefixBits, n}}, nil
	}
	hist := make([]int, 1<<prefixBits)
	for _, m := range ec.morselsOf(n) {
		if err := ec.interrupted(); err != nil {
			return nil, err
		}
		hashes, nulls := joinKeyHashes(sliceVecs(hj.rkeys, m.lo, m.hi), m.hi-m.lo, nil)
		for r, h := range hashes {
			if nulls == nil || !nulls[r] {
				hist[prefixOf(h)]++
			}
		}
	}
	var units []span
	var split func(lo, hi int)
	split = func(lo, hi int) {
		rows := 0
		for _, c := range hist[lo:hi] {
			rows += c
		}
		if int64(rows)*residentRowBytes <= ec.QueryMemLimit/2 || hi-lo == 1 {
			units = append(units, span{lo, hi, rows})
			return
		}
		for w := (hi - lo) / 16; lo < hi; lo += w {
			split(lo, lo+w)
		}
	}
	for p := 0; p < 1<<prefixBits; p += 1 << (prefixBits - 4) {
		split(p, p+1<<(prefixBits-4))
	}
	return units, nil
}

// admit asks the accountant about units[i:] in turn and returns the end
// of the pass starting at i: it takes unit i, then every next unit while
// the budget holds (a unit without rows costs nothing and always joins),
// charging the rows it takes residentRowBytes each, until the pass has
// probed. It also returns how many rows and non-empty units it took.
func (hj *hashJoiner) admit(units []span, i int) (end, rows, parts int) {
	for end = i; end < len(units); end++ {
		u := units[end]
		if end > i && u.rows > 0 && hj.ec.Acct.OverLimit() {
			break
		}
		hj.ec.charge(int64(u.rows) * residentRowBytes)
		rows += u.rows
		if u.rows > 0 {
			parts++
		}
	}
	return end, rows, parts
}

// joinStream is a hash join's output when it took more than one pass:
// every pass's pairs, still unmaterialized, and the inputs they index.
// merge reads the rows back in the in-memory join's order, in
// morsel-sized batches. It is read once.
type joinStream struct {
	lkeys        []*Vector // the left side's key columns: a row's key hash names its pass
	lcols, rcols []*Vector // the join's inputs, which the pairs index
	passOf       []uint16  // the pass joining each key-hash prefix
	passes       []pairList
	kept         int64 // bytes charged for the pairs kept in memory
	schema       Schema
	rows         int
}

// pairList is one pass's pairs as merge keys in ascending order: in
// memory, or in the run file run.
type pairList struct {
	mks []int64
	run string
}

// add appends the pass that joined the prefixes [lo, hi), with its pairs.
// They stay in memory, charged, while the kept pairs hold half the budget;
// otherwise they go to a run, whose bytes the join's node counts.
func (s *joinStream) add(ec *ExecContext, lo, hi int, lsel, rsel []int32, node *PlanNode) error {
	for p := lo; p < hi; p++ {
		s.passOf[p] = uint16(len(s.passes))
	}
	mks := make([]int64, len(lsel))
	for i := range mks {
		mks[i] = int64(lsel[i]+1)<<32 | int64(rsel[i]+1)
	}
	s.rows += len(mks)
	if b := int64(len(mks)) * 8; s.kept+b <= ec.QueryMemLimit/2 {
		ec.charge(b)
		s.kept += b
		s.passes = append(s.passes, pairList{mks: mks})
		return nil
	}
	w, err := ec.newRunWriter("jp", []*Vector{NewVector(Int64)})
	if err != nil {
		return err
	}
	for k := 0; k < len(mks) && err == nil; k += ec.morselSize() {
		err = w.write([]*Vector{NewInt64Vector(mks[k:min(k+ec.morselSize(), len(mks))], nil)})
	}
	node.SpillBytes += w.bytes() // the query's counters took them per write
	s.passes = append(s.passes, pairList{run: w.path})
	return errors.Join(err, w.close())
}

// pairHead reads one pass's merge keys in order.
type pairHead struct {
	mks  []int64 // the batch being read
	k    int
	rr   *runReader // the pass's run while it has batches left
	path string
}

// peek returns the head's next merge key, or 0 once it is drained (a
// merge key is never 0). A drained run is closed and deleted.
func (h *pairHead) peek(ec *ExecContext) (int64, error) {
	for h.k == len(h.mks) {
		if h.rr == nil {
			return 0, nil
		}
		vs, err := h.rr.next()
		if err == io.EOF {
			err, h.rr = h.rr.close(), nil
			ec.removeRun(h.path)
		} else if err == nil {
			h.mks, h.k = vs[0].Int64s(), 0
		}
		if err != nil {
			return 0, err
		}
	}
	return h.mks[h.k], nil
}

// merge walks the left rows in order, takes each row's pairs from the
// pass its key hash names (NULL keys: the first pass, which padded them),
// and hands fn the joined rows in morsel-sized batches, gathered from the
// inputs, along with each batch's starting row ordinal.
func (s *joinStream) merge(ec *ExecContext, fn func(batch *Table, start int64) error) error {
	heads := make([]pairHead, len(s.passes))
	defer func() {
		for _, h := range heads {
			if h.rr != nil {
				h.rr.close()
			}
		}
		ec.release(s.kept)
	}()
	for i, pl := range s.passes {
		heads[i].mks, heads[i].path = pl.mks, pl.run
		if pl.run != "" {
			rr, err := ec.openRun(pl.run)
			if err != nil {
				return err
			}
			heads[i].rr = rr
		}
	}
	batchRows := ec.morselSize()
	lsel, rsel := make([]int32, 0, batchRows), make([]int32, 0, batchRows)
	var start int64
	flush := func() error {
		if len(lsel) == 0 {
			return nil
		}
		if err := fn(&Table{schema: s.schema, cols: ec.gatherPairs(s.lcols, s.rcols, lsel, rsel)}, start); err != nil {
			return err
		}
		start += int64(len(lsel))
		lsel, rsel = lsel[:0], rsel[:0]
		return ec.interrupted()
	}
	for _, m := range ec.morselsOf(s.lkeys[0].Len()) {
		if err := ec.interrupted(); err != nil {
			return err
		}
		hashes, nulls := joinKeyHashes(sliceVecs(s.lkeys, m.lo, m.hi), m.hi-m.lo, nil)
		for i, hash := range hashes {
			h := &heads[0]
			if nulls == nil || !nulls[i] {
				h = &heads[s.passOf[prefixOf(hash)]]
			}
			lrid := int64(m.lo + i)
			for {
				mk, err := h.peek(ec)
				if err != nil {
					return err
				}
				if mk>>32 != lrid+1 {
					break
				}
				lsel, rsel = append(lsel, int32(lrid)), append(rsel, int32(mk&(1<<32-1))-1)
				h.k++
				if len(lsel) == batchRows {
					if err := flush(); err != nil {
						return err
					}
				}
			}
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
