package engine

// spillagg implements the disk-backed grouped aggregation path. When the
// in-memory partial pass crosses the query's soft memory budget, the
// aggregation restarts here: one serial pass hash-partitions every
// (filtered) input row into 16 run files by its group-key hash, then each
// partition is processed independently — re-partitioned recursively while
// it still exceeds half the budget, otherwise loaded and aggregated by the
// very kernel the in-memory path runs (buildPartial + combinePartials),
// restricted to its groups — in-memory execution is the one-partition,
// zero-spill case of this.
//
// Bit-identity with the in-memory path is preserved by construction:
// every spilled row carries its original row ordinal (seq), partitions
// reload rows in seq order, and runs are split at the same morsel
// boundaries the parallel path uses (seq / morsel size). Per-group float
// accumulators therefore fold the same per-morsel sub-states in the same
// morsel order, and the final group order is restored by sorting on each
// group's first-appearance ordinal.

import (
	"errors"
	"fmt"
	"io"
)

// errAggOverBudget aborts the in-memory partial pass when the accountant
// crosses the query budget and spilling is available.
var errAggOverBudget = errors.New("engine: aggregate over memory budget")

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

// add routes one batch's rows (keys and cols share length n; seq[r] is row
// r's global ordinal) to their partitions by key hash and appends each
// slice as a batch to the partition's run file. Row order is preserved per
// partition, so run files stay sorted by seq.
func (sp *rowSpiller) add(keys, cols []*Vector, seq []int64, n int) error {
	for p := range sp.sels {
		sp.sels[p] = sp.sels[p][:0]
	}
	hashes := getHashBuf(n)
	hashKeyCols(keys, n, hashes)
	shift := uint(60 - 4*sp.depth)
	for r := 0; r < n; r++ {
		p := (hashes[r] >> shift) & 15
		sp.sels[p] = append(sp.sels[p], int32(r))
	}
	putHashBuf(hashes)
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
			err = sub.add(keysOf(vs), vs[:last], vs[last].Int64s(), vs[0].Len())
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

// aggSpillState is a streaming sink for the spilled aggregation: callers
// feed (filtered) input batches tagged with their original row ordinals,
// then finish() partitions-processes everything into the $key/$agg
// intermediate table. Used by execAggSpill (input table morsels) and the
// grace-join path (merged join output batches). A run row holds the group
// keys, then each call's argument vectors (see aggArgs), then the ordinal.
type aggSpillState struct {
	ec      *ExecContext
	prep    *aggPrep
	sp      *rowSpiller
	spilled int64
}

func newAggSpillState(ec *ExecContext, prep *aggPrep) *aggSpillState {
	return &aggSpillState{ec: ec, prep: prep, sp: &rowSpiller{ec: ec, label: "agg"}}
}

// feed partitions one batch of already-filtered rows. The batch started at
// ordinal start of the unfiltered input and sel (nil = every row) holds the
// surviving rows' offsets from it; phase B uses the ordinals to recover
// morsel boundaries and first-appearance order.
func (as *aggSpillState) feed(part *Table, start int64, sel []int32) error {
	n := part.NumRows()
	if n == 0 {
		return nil
	}
	keys, args, err := as.prep.evalInputs(part)
	if err != nil {
		return err
	}
	cols := keys
	for _, av := range args {
		cols = append(cols, av...)
	}
	seq := make([]int64, n)
	for r := range seq {
		seq[r] = start + int64(r)
		if sel != nil {
			seq[r] = start + int64(sel[r])
		}
	}
	return as.sp.add(keys, cols, seq, n)
}

// abort closes any open run writers after a feed error.
func (as *aggSpillState) abort() { as.sp.close() }

// finish processes every partition and assembles the intermediate table,
// recording spill totals on the aggregate's plan node.
func (as *aggSpillState) finish(node *PlanNode) (*Table, error) {
	ec, prep := as.ec, as.prep
	nKeys, msize := len(prep.emptyKeys), int64(ec.morselSize())
	paths, bytes, err := as.sp.close()
	if err != nil {
		return nil, err
	}
	as.spilled += bytes

	// Process partitions in hash order. midParts[i] holds one partition's
	// groups (keys + agg results); firstSeqs aligns with the concatenated
	// rows and restores global first-appearance order.
	var midParts []*Table
	var firstSeqs []int64

	var process func(path string, depth int) error
	process = func(path string, depth int) error {
		if err := ec.interrupted(); err != nil {
			return err
		}
		rr, err := ec.openRun(path)
		if err != nil {
			return err
		}
		if b := ec.budget(); rr.size > b/2 && depth < maxSpillDepth {
			// Still too big to load: subdivide by the next 4 hash bits.
			subPaths, bytes, err := ec.respill(rr, path, "agg", depth+1, func(vs []*Vector) []*Vector { return vs[:nKeys] })
			as.spilled += bytes
			if err != nil {
				return err
			}
			for _, sp := range subPaths {
				if sp == "" {
					continue
				}
				if err := process(sp, depth+1); err != nil {
					return err
				}
			}
			return nil
		}

		// Leaf: load the whole partition (sorted by seq — writers preserve
		// row order), cut it at the input's morsel boundaries, and run the
		// aggregate kernel over those runs: per-run partials hold exactly
		// this partition's rows of each morsel, in morsel order.
		cols, total, loaded, err := ec.loadRun(rr, path)
		if err != nil {
			return err
		}
		defer ec.release(loaded)
		if total == 0 {
			return nil
		}
		seqAll := cols[len(cols)-1].Int64s()
		var partials []*morselAgg
		var runLo []int
		for lo, r := 0, 1; r <= total; r++ {
			if r < total && seqAll[r]/msize == seqAll[lo]/msize {
				continue
			}
			run := sliceVecs(cols, lo, r)
			args := make([][]*Vector, len(prep.aggCalls))
			off := nKeys
			for k := range args {
				args[k] = run[off : off+len(prep.emptyArgs[k])]
				off += len(args[k])
			}
			ma, err := buildPartial(prep.aggCalls, run[:nKeys], args, r-lo)
			if err != nil {
				return err
			}
			partials = append(partials, ma)
			runLo = append(runLo, lo)
			lo = r
		}
		pt, refs, err := combinePartials(prep, partials)
		if err != nil {
			return err
		}
		// A group's firstSeq is the ordinal of its first row anywhere in
		// the input.
		for _, rf := range refs {
			firstSeqs = append(firstSeqs, seqAll[runLo[rf.src]+int(rf.row)])
		}
		ec.charge(pt.ByteSize())
		midParts = append(midParts, pt)
		return nil
	}
	for _, p := range paths {
		if p == "" {
			continue
		}
		if err := process(p, 0); err != nil {
			return nil, err
		}
	}

	if node != nil {
		node.Groups = int64(len(firstSeqs))
		node.SpillParts += int64(len(midParts))
		node.SpillBytes += as.spilled
	}
	ec.addSpill(0, int64(len(midParts)))

	if len(midParts) == 0 {
		// Nothing spilled (all rows filtered out): the empty grouped table.
		mid, _, err := combinePartials(prep, nil)
		return mid, err
	}
	mid, err := ec.concatTables(midParts[0].Schema(), midParts)
	if err != nil {
		return nil, err
	}
	// Restore global first-appearance group order.
	ord, err := ec.sortPerm([]sortKey{newSortKey(NewInt64Vector(firstSeqs, nil), false)}, len(firstSeqs), nil)
	if err != nil {
		return nil, err
	}
	return mid.Gather(ord), nil
}

// execAggSpill redoes a grouped aggregation with partitioned spilling and
// returns the $key/$agg intermediate table, identical (bit-for-bit, group
// order included) to what the in-memory combine would have produced.
func execAggSpill(ec *ExecContext, prep *aggPrep, t *Table, node, fnode *PlanNode, where Expr) (*Table, error) {
	as := newAggSpillState(ec, prep)
	// Phase A: the morsel loop run serially (the partition writers are
	// shared and run files must stay in row order), partitioning every
	// (filtered) morsel's rows. Morsels decompose the unfiltered input
	// exactly like the parallel path, and a row's ordinal is its original
	// row index, so morsel membership is recoverable as seq/msize.
	err := ec.serial().forMorsels(t, where, fnode, func(_ int, m morsel, part *Table, sel []int32) error {
		node.AddMorsels(1)
		return as.feed(part, int64(m.lo), sel)
	})
	if err != nil {
		as.abort()
		return nil, err
	}
	return as.finish(node)
}
