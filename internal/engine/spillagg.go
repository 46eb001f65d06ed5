package engine

// spillagg is the disk side of the one grouped-aggregate operator
// (execAggregate). There is no restart: the operator keeps every partial
// it built while the soft budget held, and once the accountant objects it
// sends each later batch's rows to 16 run files by group-key hash instead.
// At the end each partition folds its share of the kept partials and the
// partials of its reloaded rows (combineSpilled), re-split by the next 4
// hash bits while its run exceeds half the budget. An aggregate that never
// crossed its budget combines in memory and never reaches this file.
//
// Bit-identity with the in-memory combine holds by construction: every
// spilled row carries its input row ordinal (seq), each run batch holds
// one input batch's rows of the partition in row order, so a reloaded
// batch's partial is that batch's in-memory partial restricted to the
// partition; partials fold in batch order, and the final group order is
// restored by sorting on each group's first-appearance ordinal.

import (
	"fmt"
	"io"
	"slices"
)

// maxSpillDepth bounds recursive repartitioning: depth 0 is the initial
// 16-way split, each extra level subdivides by the next 4 hash bits.
const maxSpillDepth = 2

// rowSpiller hash-partitions rows into 16 run files by a 4-bit window of
// their key hash; depth d uses bits [60-4d, 64-4d), so deeper levels
// subdivide a partition without reshuffling the others.
type rowSpiller struct {
	ec    *ExecContext
	label string
	depth int
	ws    [16]*runWriter
	sels  [16][]int32
}

// addKeys routes one batch's rows to their partitions by the hash of
// their key columns keys (seq[r] is row r's global ordinal; cols have n
// rows) and appends each slice, in row order, as one batch to the
// partition's run file.
func (sp *rowSpiller) addKeys(keys, cols []*Vector, seq []int64, n int) error {
	hashes := getHashBuf(n)
	defer putHashBuf(hashes)
	hashKeyCols(keys, n, hashes)
	for p := range sp.sels {
		sp.sels[p] = sp.sels[p][:0]
	}
	shift := uint(60 - 4*sp.depth)
	for r, h := range hashes {
		p := (h >> shift) & 15
		sp.sels[p] = append(sp.sels[p], int32(r))
	}
	for p, sel := range sp.sels {
		if len(sel) == 0 {
			continue
		}
		out := make([]*Vector, 0, len(cols)+1)
		for _, c := range cols {
			out = append(out, c.Gather(sel))
		}
		sq := make([]int64, len(sel))
		for i, r := range sel {
			sq[i] = seq[r]
		}
		out = append(out, &Vector{typ: Int64, i64: sq})
		if sp.ws[p] == nil {
			w, err := sp.ec.newRunWriter(fmt.Sprintf("%s-d%d-p%d", sp.label, sp.depth, p), out)
			if err != nil {
				return err
			}
			sp.ws[p] = w
		}
		if err := sp.ws[p].write(out); err != nil {
			return err
		}
	}
	return nil
}

// opened reports whether any row was spilled.
func (sp *rowSpiller) opened() bool {
	return slices.ContainsFunc(sp.ws[:], func(w *runWriter) bool { return w != nil })
}

// close closes every open writer and returns the non-empty partitions'
// paths plus the total encoded bytes written.
func (sp *rowSpiller) close() ([16]string, int64, error) {
	var paths [16]string
	var bytes int64
	var firstErr error
	for p, w := range sp.ws {
		if w == nil {
			continue
		}
		paths[p] = w.path
		bytes += w.bytes()
		if err := w.close(); err != nil && firstErr == nil {
			firstErr = err
		}
		sp.ws[p] = nil
	}
	return paths, bytes, firstErr
}

// respill re-splits the run behind rr by the next 4 hash bits (depth) of
// the key columns keysOf picks out of each batch, consuming and deleting
// the run. A batch's last column is the row ordinal.
func (ec *ExecContext) respill(rr *runReader, path, label string, depth int, keysOf func(vs []*Vector) []*Vector) ([16]string, int64, error) {
	sub := &rowSpiller{ec: ec, label: label, depth: depth}
	for {
		vs, err := rr.next()
		if err == io.EOF {
			break
		}
		if err == nil {
			err = ec.interrupted()
		}
		if err == nil {
			last := len(vs) - 1
			err = sub.addKeys(keysOf(vs), vs[:last], vs[last].Int64s(), vs[0].Len())
		}
		if err != nil {
			rr.close()
			sub.close()
			return [16]string{}, 0, err
		}
	}
	if err := rr.close(); err != nil {
		sub.close()
		return [16]string{}, 0, err
	}
	ec.removeRun(path)
	return sub.close()
}

// combineSpilled is the combine of an aggregate that spilled part of its
// input. Every hash partition — 16 by the top 4 bits of the key hash,
// split by the next 4 while its run exceeds half the budget — folds, in
// batch order, two sets of partials: the kept partials' groups that hash
// into it, and the partials of its reloaded morsel-runs. Concatenated, the
// partitions' groups are sorted back into first-appearance order.
//
// Bit-identity with the in-memory combine holds by construction: a
// reloaded run is one batch's rows of the partition in row order, so its
// partial equals that batch's in-memory partial restricted to the
// partition, and every group folds the same per-batch partials in the same
// batch order.
func combineSpilled(ec *ExecContext, prep *aggPrep, kept []*morselAgg, sp *rowSpiller, node *PlanNode) (*Table, error) {
	nKeys := len(prep.emptyKeys)
	paths, spilled, err := sp.close()
	if err != nil {
		return nil, err
	}
	// mids holds each partition's groups (keys + agg results); firstSeqs
	// aligns with their concatenated rows.
	var mids []*Table
	var firstSeqs []int64
	var leaves int64

	// process combines the partition whose key hashes have the top
	// 4(depth+1) bits prefix; path is its run file ("" = nothing spilled).
	var process func(path string, depth int, prefix uint64) error
	process = func(path string, depth int, prefix uint64) error {
		if err := ec.interrupted(); err != nil {
			return err
		}
		var rr *runReader
		if path != "" {
			var err error
			if rr, err = ec.openRun(path); err != nil {
				return err
			}
			if rr.size > ec.QueryMemLimit/2 && depth < maxSpillDepth {
				// Still too big to load: subdivide by the next 4 hash bits.
				subs, bytes, err := ec.respill(rr, path, "agg", depth+1, func(vs []*Vector) []*Vector { return vs[:nKeys] })
				spilled += bytes
				if err != nil {
					return err
				}
				for q, sub := range subs {
					if err := process(sub, depth+1, prefix<<4|uint64(q)); err != nil {
						return err
					}
				}
				return nil
			}
		}
		shift := uint(60 - 4*depth)
		inPart := func(h uint64) bool { return h>>shift == prefix }
		fold := make([]*morselAgg, len(kept)) // one slot per input batch
		for i, ma := range kept {
			if ma != nil && slices.ContainsFunc(ma.hashes, inPart) {
				fold[i] = ma
			}
		}
		if rr != nil {
			loaded, err := runPartials(ec, prep, rr, path, fold)
			defer ec.release(loaded)
			if err != nil {
				return err
			}
			leaves++
		}
		fold = slices.DeleteFunc(fold, func(ma *morselAgg) bool { return ma == nil })
		if len(fold) == 0 {
			return nil
		}
		pt, gmaps, err := combinePartials(prep, fold, inPart)
		if err != nil {
			return err
		}
		// Group ids are handed out in fold order, so the first (partial,
		// local group) mapping to the next id is that group's first row.
		next := 0
		for mi, gm := range gmaps {
			for lg, g := range gm {
				if g == next {
					firstSeqs = append(firstSeqs, fold[mi].seqs[lg])
					next++
				}
			}
		}
		ec.charge(pt.ByteSize())
		mids = append(mids, pt)
		return nil
	}
	for p, path := range paths {
		if err := process(path, 0, uint64(p)); err != nil {
			return nil, err
		}
	}

	if node != nil {
		node.Groups = int64(len(firstSeqs))
		node.SpillParts += leaves
		node.SpillBytes += spilled
	}
	ec.addSpill(0, leaves)
	mid, err := ec.concatTables(mids[0].Schema(), mids)
	if err != nil {
		return nil, err
	}
	// Restore global first-appearance group order.
	ord, err := ec.sortPerm(appendSortKey(nil, NewInt64Vector(firstSeqs, nil), false), len(firstSeqs), nil)
	if err != nil {
		return nil, err
	}
	return mid.Gather(ord), nil
}

// runPartials reads a spilled partition's run batch by batch and builds
// each batch's partial into fold's slot for its input batch: the operator
// and respill write one batch per input batch and partition, holding its
// rows in row order (keys, arguments, then the row ordinal). It returns
// the bytes it charged for the rows it keeps, and deletes the run.
func runPartials(ec *ExecContext, prep *aggPrep, rr *runReader, path string, fold []*morselAgg) (int64, error) {
	nKeys, msize := len(prep.emptyKeys), int64(ec.morselSize())
	var loaded int64
	for {
		vs, err := rr.next()
		if err == io.EOF {
			break
		}
		var ma *morselAgg
		if err == nil {
			args := make([][]*Vector, len(prep.aggCalls))
			off := nKeys
			for k := range args {
				args[k] = vs[off : off+len(prep.emptyArgs[k])]
				off += len(args[k])
			}
			ma, err = buildPartial(prep.aggCalls, vs[:nKeys], args, vs[0].Len(), (*aggState).observeAll)
		}
		if err != nil {
			rr.close()
			return loaded, err
		}
		seq := vs[len(vs)-1].Int64s()
		ma.seqs = make([]int64, len(ma.rows))
		for g, r := range ma.rows {
			ma.seqs[g] = seq[r]
		}
		fold[seq[0]/msize] = ma
		for _, v := range vs {
			loaded += v.ByteSize()
			ec.charge(v.ByteSize())
		}
	}
	ec.removeRun(path)
	return loaded, rr.close()
}
