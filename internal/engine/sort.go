package engine

import (
	"math"
	"math/bits"
	"slices"
	"strings"
)

// The engine's one sort. Every ordering — ORDER BY, top-k's per-morsel and
// final selections, the join-order restore, the spilled aggregate's group
// re-ordering — is the unique permutation that orders rows by (keys, row
// index). Each key becomes one unsigned image per row whose unsigned order
// is the key's order, narrowed to the bits its observed range needs, and
// (image, row) entries are radix-sorted key by key, last key first. One
// morsel's rows sort serially, MSD digit by digit. Over more morsels a
// key's top 8-bit digit is counted per morsel, and a prefix sum over
// (digit, morsel) gives every morsel its own output slots, so morsels
// scatter in parallel; the digit's buckets then sort in parallel, MSD.
// Entries start in row order and every pass is stable, so the row index
// breaks every tie: the result is the stable order, independent of the
// parallelism degree and the morsel size.

// sortKey is one key imaged for the sort: valid row r's image is
// (u(r) ^ m) + a, a NULL row's is null, and every image fits in bits bits.
type sortKey struct {
	valid      *Bitmap // nil when the column holds no NULLs
	u          func(r int32) uint64
	m, a, null uint64
	bits       int
}

func (k *sortKey) image(r int32) uint64 {
	if !k.valid.Get(int(r)) {
		return k.null
	}
	return (k.u(r) ^ k.m) + k.a
}

// floatImage maps a float64 to a uint64 with the same order under the
// engine's total order on floats: -0.0 equals 0.0, and every NaN is equal
// to every other NaN and above +Inf.
func floatImage(x float64) uint64 {
	switch b := math.Float64bits(x); {
	case x != x:
		return math.MaxUint64
	case x == 0:
		return 1 << 63
	case b>>63 != 0:
		return ^b // negative floats: larger magnitude sorts lower
	default:
		return b | 1<<63
	}
}

// appendSortKey images v as a sort key and appends it to keys. An Int64
// key is exact past 2^53, a string key reads its code's rank. The images
// are shifted down by the smallest valid raw image, so the width is that of
// the observed range, and NULL takes the image below it (above it under
// DESC, which complements the range). Only a key spanning all 64 bits has
// no spare image: a one-bit flag key ahead of it orders its NULLs, and it
// images them 0. A constant key appends nothing.
func appendSortKey(keys []sortKey, v *Vector, desc bool) []sortKey {
	if v.Type() == Bool {
		v = v.CastFloat64() // false < true as 0 < 1
	}
	k := sortKey{valid: v.Valid()}
	switch v.Type() {
	case Int64:
		xs := v.Int64s()
		k.u = func(r int32) uint64 { return uint64(xs[r]) ^ 1<<63 }
	case Float64:
		xs := v.Float64s()
		k.u = func(r int32) uint64 { return floatImage(xs[r]) }
	case String:
		k.u = stringImages(v)
	}
	lo, hi, nulls := uint64(math.MaxUint64), uint64(0), false
	for r := int32(0); int(r) < v.Len(); r++ {
		if u := k.u(r); k.valid.Get(int(r)) {
			lo, hi = min(lo, u), max(hi, u)
		} else {
			nulls = true
		}
	}
	span, off := hi-lo, uint64(0)
	switch {
	case lo > hi: // every row is NULL
		return keys
	case nulls && span == math.MaxUint64:
		flag := sortKey{valid: k.valid, u: func(int32) uint64 { return 0 }, a: 1, bits: 1}
		if desc {
			flag.a, flag.null = 0, 1
		}
		keys = append(keys, flag)
	case nulls:
		off = 1
	}
	if desc {
		k.m, k.a, k.null = math.MaxUint64, hi+1, span+1 // ^u + hi + 1 = hi - u
	} else {
		k.a = off - lo
	}
	if k.bits = bits.Len64(span + off); k.bits == 0 {
		return keys
	}
	return append(keys, k)
}

// stringImages returns a string key's raw image: its code's rank among
// the dictionary's values in byte order. A key of at least a quarter as
// many rows as its dictionary has values reads the dictionary's memoized
// ranks (sortRanks); a smaller one ranks only the codes its rows use, so
// a few rows sorted over a large dictionary cost a sort of those rows'
// values, not of the dictionary's.
func stringImages(v *Vector) func(r int32) uint64 {
	codes, d := v.Codes(), v.StrDict()
	if 4*len(codes) >= d.Size() {
		ranks := d.sortRanks()
		return func(r int32) uint64 { return uint64(ranks[codes[r]]) }
	}
	used := slices.Clone(codes)
	slices.Sort(used)
	used = slices.Compact(used)
	slices.SortFunc(used, func(a, b int32) int { return strings.Compare(d.values[a], d.values[b]) })
	rank := make(map[int32]uint64, len(used))
	for i, c := range used {
		rank[c] = uint64(i)
	}
	return func(r int32) uint64 { return rank[codes[r]] }
}

// sortRanks returns each code's rank in the values' byte order. It is
// memoized; a published dictionary never grows, so every sort of a
// table's column shares one computation.
func (d *Dict) sortRanks() []int32 {
	d.hashMu.Lock()
	defer d.hashMu.Unlock()
	if len(d.ranks) != len(d.values) {
		order := identityRows(len(d.values))
		slices.SortFunc(order, func(a, b int32) int { return strings.Compare(d.values[a], d.values[b]) })
		d.ranks = make([]int32, len(order))
		for rank, c := range order {
			d.ranks[c] = int32(rank)
		}
	}
	return d.ranks
}

// orderKeys evaluates the ORDER BY expressions over t and images them.
func orderKeys(items []OrderItem, t *Table) ([]sortKey, error) {
	var keys []sortKey
	for _, it := range items {
		v, err := Eval(it.Expr, t)
		if err != nil {
			return nil, err
		}
		keys = appendSortKey(keys, v, it.Desc)
	}
	return keys, nil
}

func identityRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

const (
	radixBits  = 8
	radixSmall = 32 // runs this short are insertion-sorted
)

// sortPerm returns the permutation of [0, n) that orders rows by keys and
// then row index. node (optional) counts the morsels. A single morsel is
// sorted serially (msdSort), key by key.
func (ec *ExecContext) sortPerm(keys []sortKey, n int, node *PlanNode) ([]int32, error) {
	ms := ec.morselsOf(n)
	node.AddMorsels(int64(len(ms)))
	rows, tmpRows := identityRows(n), make([]int32, n)
	img, tmpImg := make([]uint64, n), make([]uint64, n)
	if len(ms) <= 1 {
		for ki := len(keys) - 1; ki >= 0; ki-- {
			for j, r := range rows {
				img[j] = keys[ki].image(r)
			}
			msdSort(img, tmpImg, rows, tmpRows, keys[ki].bits)
		}
		return rows, nil
	}
	pos := make([][1 << radixBits]int, len(ms))
	for ki := len(keys) - 1; ki >= 0; ki-- {
		k, shift := &keys[ki], max(keys[ki].bits-radixBits, 0)
		err := ec.parallelFor(len(ms), func(i int) error {
			pos[i] = [1 << radixBits]int{}
			for j := ms[i].lo; j < ms[i].hi; j++ {
				img[j] = k.image(rows[j])
				pos[i][img[j]>>shift&(1<<radixBits-1)]++
			}
			return nil
		})
		// Digit d's entries from morsel i land after every smaller digit's
		// and after earlier morsels' of digit d; once they have, the last
		// morsel's slots mark where each digit's bucket ends.
		for d, off := 0, 0; d < 1<<radixBits; d++ {
			for i := range pos {
				pos[i][d], off = off, off+pos[i][d]
			}
		}
		if err == nil {
			err = ec.parallelFor(len(ms), func(i int) error {
				scatter(img[ms[i].lo:ms[i].hi], rows[ms[i].lo:ms[i].hi], tmpImg, tmpRows, &pos[i], shift)
				return nil
			})
		}
		if ends := &pos[len(ms)-1]; err == nil {
			err = ec.parallelFor(1<<radixBits, func(d int) error {
				lo := 0
				if d > 0 {
					lo = ends[d-1]
				}
				msdSort(tmpImg[lo:ends[d]], img[lo:ends[d]], tmpRows[lo:ends[d]], rows[lo:ends[d]], shift)
				return nil
			})
		}
		if err != nil {
			return nil, err
		}
		img, tmpImg, rows, tmpRows = tmpImg, img, tmpRows, rows
	}
	return rows, nil
}

// msdSort stably sorts the entries (k[i], r[i]) by the low width bits of
// k, in place, with tk and tr as scratch: one 8-bit digit at a time from
// the highest, skipping a digit all entries share, down to short runs.
func msdSort(k, tk []uint64, r, tr []int32, width int) {
	for ; width > 0 && len(k) > radixSmall; width -= radixBits {
		shift := max(width-radixBits, 0)
		var pos [1 << radixBits]int
		for _, x := range k {
			pos[x>>shift&(1<<radixBits-1)]++
		}
		if pos[k[0]>>shift&(1<<radixBits-1)] == len(k) {
			continue
		}
		for d, off := 0, 0; d < len(pos); d++ {
			pos[d], off = off, off+pos[d]
		}
		scatter(k, r, tk, tr, &pos, shift) // now bucket d ends at pos[d]
		for d, lo := 0, 0; d < len(pos); lo, d = pos[d], d+1 {
			msdSort(tk[lo:pos[d]], k[lo:pos[d]], tr[lo:pos[d]], r[lo:pos[d]], shift)
		}
		copy(k, tk)
		copy(r, tr)
		return
	}
	for i := 1; i < len(k); i++ {
		x, y, j := k[i], r[i], i
		for ; j > 0 && k[j-1] > x; j-- {
			k[j], r[j] = k[j-1], r[j-1]
		}
		k[j], r[j] = x, y
	}
}

// scatter moves the entries (img[j], rows[j]) to the slots pos assigns
// their digit, in order, advancing each digit's slot.
func scatter(img []uint64, rows []int32, dst []uint64, dstRows []int32, pos *[1 << radixBits]int, shift int) {
	for j, x := range img {
		p := &pos[x>>shift&(1<<radixBits-1)]
		dst[*p], dstRows[*p] = x, rows[j]
		*p++
	}
}

// topRows returns, in row order, the rows of [0, n) among the first k by
// keys and row index: a bounded max-heap of the best rows so far. Rows
// arrive in index order, so a row tying the heap's worst loses.
func topRows(keys []sortKey, n, k int) []int32 {
	img := make([][]uint64, len(keys))
	for ki := range keys {
		img[ki] = make([]uint64, n)
		for r := range img[ki] {
			img[ki][r] = keys[ki].image(int32(r))
		}
	}
	less := func(a, b int32) bool {
		for _, x := range img {
			if x[a] != x[b] {
				return x[a] < x[b]
			}
		}
		return a < b
	}
	h := identityRows(min(k, n))
	down := func(p int) {
		for c := 2*p + 1; c < len(h); p, c = c, 2*c+1 {
			if c+1 < len(h) && less(h[c], h[c+1]) {
				c++
			}
			if !less(h[p], h[c]) {
				return
			}
			h[p], h[c] = h[c], h[p]
		}
	}
	for p := len(h)/2 - 1; p >= 0; p-- {
		down(p)
	}
	for r := int32(len(h)); int(r) < n && len(h) > 0; r++ {
		if less(r, h[0]) {
			h[0] = r
			down(0)
		}
	}
	slices.Sort(h)
	return h
}

// sortTable orders t by the ORDER BY items and gathers, morsel-parallel,
// only the columns named by keep (every column when keep is nil). sg
// (nullable) receives the fan-out degree and morsel count for EXPLAIN.
func (ec *ExecContext) sortTable(items []OrderItem, t *Table, keep []string, sg *stage) (*Table, error) {
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
	if keep != nil {
		if t, err = projectNames(t, keep); err != nil {
			return nil, err
		}
	}
	return ec.gatherRows(t, perm)
}
