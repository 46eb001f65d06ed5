package engine

import (
	"cmp"
	"math"
	"slices"
	"strings"
)

// The engine's one sort. Every ordering — ORDER BY, top-k's per-morsel and
// final selections, the join-order restore, the spilled aggregate's group
// re-ordering — is the unique permutation that orders rows by (keys, row
// index): each morsel's rows are sorted as one run, and adjacent runs are
// merged pairwise in rounds. The comparator is total (NULLs and NaNs have
// fixed positions, the row index breaks every tie), so that permutation is
// well defined and independent of the parallelism degree, which only
// changes how many runs are sorted or merged at once. Tie-breaking on the
// row index is what a stable sort does, so the result is the stable order.

// sortKey is one sort key prepared for comparison, once per sort: numeric
// and boolean columns become order-preserving int64 images (an Int64 key
// compares as int64, exact past 2^53), string columns compare through
// their dictionary.
type sortKey struct {
	desc  bool
	valid *Bitmap // nil when the column holds no NULLs
	str   bool
	ints  []int64
	codes []int32
	dict  *Dict
}

// floatSortKey maps a float64 to an int64 with the same order, under the
// engine's total order on floats: -0.0 equals 0.0, and every NaN is equal
// to every other NaN and above +Inf.
func floatSortKey(x float64) int64 {
	switch {
	case x != x:
		return math.MaxInt64
	case x == 0:
		return 0
	}
	b := int64(math.Float64bits(x))
	if b < 0 {
		b ^= math.MaxInt64 // negative floats: larger magnitude sorts lower
	}
	return b
}

func newSortKey(v *Vector, desc bool) sortKey {
	k := sortKey{desc: desc, valid: v.Valid()}
	switch v.Type() {
	case String:
		k.str, k.codes, k.dict = true, v.Codes(), v.StrDict()
	case Int64:
		k.ints = v.Int64s()
	case Float64:
		k.ints = make([]int64, v.Len())
		for i, x := range v.Float64s() {
			k.ints[i] = floatSortKey(x)
		}
	case Bool:
		k.ints = make([]int64, v.Len())
		for i, x := range v.Bools() {
			if x {
				k.ints[i] = 1
			}
		}
	}
	return k
}

// orderKeys evaluates the ORDER BY expressions over t and prepares them.
func orderKeys(items []OrderItem, t *Table) ([]sortKey, error) {
	keys := make([]sortKey, len(items))
	for i, it := range items {
		v, err := Eval(it.Expr, t)
		if err != nil {
			return nil, err
		}
		keys[i] = newSortKey(v, it.Desc)
	}
	return keys, nil
}

// compareSortRows orders rows a and b: key by key with NULLs first (last
// under DESC), then by row index.
func compareSortRows(keys []sortKey, a, b int32) int {
	for i := range keys {
		k := &keys[i]
		c := 0
		if k.valid != nil {
			va, vb := k.valid.Get(int(a)), k.valid.Get(int(b))
			switch {
			case !va && !vb:
				continue
			case !va:
				c = -1
			case !vb:
				c = 1
			}
		}
		if c == 0 {
			if !k.str {
				c = cmp.Compare(k.ints[a], k.ints[b])
			} else if ca, cb := k.codes[a], k.codes[b]; ca != cb {
				c = strings.Compare(k.dict.Value(ca), k.dict.Value(cb))
			}
		}
		if c != 0 {
			if k.desc {
				return -c
			}
			return c
		}
	}
	return cmp.Compare(a, b)
}

// sortPerm returns the permutation of [0, n) that orders rows by keys and
// then row index. node (optional) counts the sorted runs as morsels.
func (ec *ExecContext) sortPerm(keys []sortKey, n int, node *PlanNode) ([]int32, error) {
	src := make([]int32, n)
	for i := range src {
		src[i] = int32(i)
	}
	cmpRows := func(a, b int32) int { return compareSortRows(keys, a, b) }
	ms := ec.morselsOf(n)
	if err := ec.parallelFor(len(ms), func(i int) error {
		slices.SortFunc(src[ms[i].lo:ms[i].hi], cmpRows)
		node.AddMorsels(1)
		return nil
	}); err != nil {
		return nil, err
	}
	if len(ms) <= 1 {
		return src, nil
	}
	// Runs are adjacent ranges of src, so a round merges every adjacent
	// pair into the same range of dst and the two buffers swap. Pairing is
	// by run index: the merge tree never depends on scheduling.
	bounds := make([]int, len(ms)+1)
	for i, m := range ms {
		bounds[i+1] = m.hi
	}
	dst := make([]int32, n)
	for len(bounds) > 2 {
		runs := len(bounds) - 1
		if err := ec.parallelFor((runs+1)/2, func(i int) error {
			lo, mid, hi := bounds[2*i], bounds[2*i+1], bounds[min(2*i+2, runs)]
			mergeRuns(dst[lo:hi], src[lo:mid], src[mid:hi], cmpRows)
			return nil
		}); err != nil {
			return nil, err
		}
		next := bounds[:0:0]
		for i := 0; i < runs; i += 2 {
			next = append(next, bounds[i])
		}
		bounds = append(next, n)
		src, dst = dst, src
	}
	return src, nil
}

// mergeRuns merges two sorted runs into out (len(out) = len(a)+len(b)).
func mergeRuns(out, a, b []int32, cmpRows func(x, y int32) int) {
	i, j, o := 0, 0, 0
	for i < len(a) && j < len(b) {
		if cmpRows(b[j], a[i]) < 0 {
			out[o] = b[j]
			j++
		} else {
			out[o] = a[i]
			i++
		}
		o++
	}
	o += copy(out[o:], a[i:])
	copy(out[o:], b[j:])
}

// sortTable orders t by the ORDER BY items. sg (nullable) receives the
// fan-out degree and run count for EXPLAIN.
func (ec *ExecContext) sortTable(items []OrderItem, t *Table, sg *stage) (*Table, error) {
	keys, err := orderKeys(items, t)
	if err != nil {
		return nil, err
	}
	n := t.NumRows()
	sg.node.Parallelism = 0 // drop the plan's prediction: the row count is known now
	sg.setParallelism(ec.degreeFor(ec.numMorsels(n)))
	perm, err := ec.sortPerm(keys, n, sg.node)
	if err != nil {
		return nil, err
	}
	return t.Gather(perm), nil
}
