package engine

// Vectorized hashing and typed key kernels. The grouping, join, and
// DISTINCT paths used to render every key tuple to a string
// (fmt.Fprintf("%v|")) and probe Go maps — roughly two heap allocations
// per input row, and an encoding that collides for tuples like
// ("a|", "b") vs ("a", "|b") or for data containing the NULL sentinel.
// Following the column-at-a-time engines the paper builds on
// (MonetDB/X100-style vectorized execution), keys are instead hashed by
// typed kernels into a []uint64 per morsel and resolved through
// open-addressing tables that compare hashes first and typed column
// values as the tie-break. NULL is folded into the hash as an explicit
// marker and compared as equal-to-NULL (SQL GROUP BY semantics); since
// equality is decided on the typed values, hash collisions can only cost
// probes, never correctness.

import (
	"math"
	"sync"
)

// hashSeed is the initial accumulator for every key-tuple hash; column
// hashes are folded into it one at a time.
const hashSeed uint64 = 0x8a5cd789635d2dff

// hashNull is the element marker folded in for NULL rows, so that NULL
// participates in hashing without ever being rendered as data.
const hashNull uint64 = 0x9e3779b97f4a7c15

// canonicalNaN collapses every NaN payload to one bit pattern so that all
// NaNs hash and compare equal (the old %v encoding rendered every NaN as
// "NaN"); ±0 keep distinct bit patterns, matching "%v"'s "0" vs "-0".
var canonicalNaN = math.Float64bits(math.NaN())

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit mixer over
// the raw word of a key element.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashString hashes string content (FNV-1a folded through mix64), so the
// same text hashes identically regardless of which dictionary encodes it.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// floatKeyBits returns the grouping key bits of a float64: raw IEEE bits
// with every NaN collapsed to one canonical pattern.
func floatKeyBits(f float64) uint64 {
	if f != f {
		return canonicalNaN
	}
	return math.Float64bits(f)
}

// hashKeyCols fills out[:n] with the combined hash of each row's key
// tuple across cols. Kernels are per-type tight loops over the raw
// payload words; string columns hash each distinct dictionary code once
// (memoized on the dict) and gather per row.
func hashKeyCols(cols []*Vector, n int, out []uint64) {
	out = out[:n]
	for i := range out {
		out[i] = hashSeed
	}
	for _, c := range cols {
		foldColHash(c, n, out)
	}
}

// foldColHash folds one column's per-row element hashes into out[:n].
func foldColHash(v *Vector, n int, out []uint64) {
	out = out[:n]
	valid := v.valid
	switch v.typ {
	case Int64:
		vals := v.i64[:n]
		if valid == nil {
			for i, x := range vals {
				out[i] = mix64(out[i] ^ mix64(uint64(x)))
			}
			return
		}
		for i, x := range vals {
			if valid.Get(i) {
				out[i] = mix64(out[i] ^ mix64(uint64(x)))
			} else {
				out[i] = mix64(out[i] ^ hashNull)
			}
		}
	case Float64:
		vals := v.f64[:n]
		if valid == nil {
			for i, x := range vals {
				out[i] = mix64(out[i] ^ mix64(floatKeyBits(x)))
			}
			return
		}
		for i, x := range vals {
			if valid.Get(i) {
				out[i] = mix64(out[i] ^ mix64(floatKeyBits(x)))
			} else {
				out[i] = mix64(out[i] ^ hashNull)
			}
		}
	case Bool:
		vals := v.b[:n]
		if valid == nil {
			for i, x := range vals {
				out[i] = mix64(out[i] ^ boolHash(x))
			}
			return
		}
		for i, x := range vals {
			if valid.Get(i) {
				out[i] = mix64(out[i] ^ boolHash(x))
			} else {
				out[i] = mix64(out[i] ^ hashNull)
			}
		}
	case String:
		ch := v.dict.codeHashes()
		codes := v.codes[:n]
		if valid == nil {
			for i, c := range codes {
				out[i] = mix64(out[i] ^ ch[c])
			}
			return
		}
		for i, c := range codes {
			if valid.Get(i) {
				out[i] = mix64(out[i] ^ ch[c])
			} else {
				out[i] = mix64(out[i] ^ hashNull)
			}
		}
	}
}

func boolHash(x bool) uint64 {
	if x {
		return mix64(2)
	}
	return mix64(1)
}

// codeHashes returns the per-code content hashes of the dictionary,
// computing only the codes added since the last call. Morsels slicing the
// same column share the parent dictionary, so across a 500k-row scan each
// distinct string is hashed exactly once.
func (d *Dict) codeHashes() []uint64 {
	d.hashMu.Lock()
	for len(d.hashes) < len(d.values) {
		d.hashes = append(d.hashes, hashString(d.values[len(d.hashes)]))
	}
	h := d.hashes
	d.hashMu.Unlock()
	return h
}

// keyRowsEqual reports whether row a of tuple ka equals row b of tuple kb
// under grouping semantics: NULL equals NULL, floats compare by bit
// pattern (NaNs identified, ±0 distinct), strings by content (by code
// when the dictionaries are shared). Column types must match pairwise;
// the join path promotes mixed numeric pairs before hashing.
func keyRowsEqual(ka []*Vector, a int, kb []*Vector, b int) bool {
	for k := range ka {
		va, vb := ka[k], kb[k]
		na, nb := va.IsNull(a), vb.IsNull(b)
		if na || nb {
			if na != nb {
				return false
			}
			continue
		}
		switch va.typ {
		case Int64:
			if va.i64[a] != vb.i64[b] {
				return false
			}
		case Float64:
			if floatKeyBits(va.f64[a]) != floatKeyBits(vb.f64[b]) {
				return false
			}
		case Bool:
			if va.b[a] != vb.b[b] {
				return false
			}
		case String:
			if va.dict == vb.dict {
				if va.codes[a] != vb.codes[b] {
					return false
				}
			} else if va.dict.Value(va.codes[a]) != vb.dict.Value(vb.codes[b]) {
				return false
			}
		}
	}
	return true
}

// rowRef locates a group's representative row: the index of the key
// source (one morsel's evaluated key vectors) plus the row within it.
type rowRef struct {
	src int32
	row int32
}

// groupIndex assigns dense ids to key tuples in first-insertion order. It
// is an open-addressing hash table (power-of-two capacity, linear
// probing) whose slots hold group-id+1; per-group payload arrays carry
// the tuple hash and the representative rowRef, so probing compares the
// 64-bit hash first and falls back to typed column equality only on a
// hash match. Key tuples may come from several sources (morsels) with
// distinct backing vectors; content hashing keeps their hashes
// comparable. find is read-only and safe for concurrent probing once
// inserts stop (the join's shared build index).
type groupIndex struct {
	slots  []int32 // group id + 1; 0 = empty
	mask   int
	hashes []uint64 // per group: key-tuple hash
	refs   []rowRef // per group: representative row
	srcs   [][]*Vector
}

// newGroupIndex sizes the table for about hint distinct keys (it grows as
// needed either way).
func newGroupIndex(hint int) *groupIndex {
	capacity := 64
	for capacity*3 < hint*4 { // ≥ 25% headroom over the hint
		capacity <<= 1
	}
	return &groupIndex{slots: make([]int32, capacity), mask: capacity - 1}
}

// addSource registers a key-vector tuple and returns its source index.
// Not safe concurrently with insert/find.
func (gi *groupIndex) addSource(keyCols []*Vector) int32 {
	gi.srcs = append(gi.srcs, keyCols)
	return int32(len(gi.srcs) - 1)
}

// groups returns the number of distinct keys inserted so far.
func (gi *groupIndex) groups() int { return len(gi.refs) }

// insert returns the dense group id of the key tuple at (src, row),
// assigning the next id when the tuple is new.
func (gi *groupIndex) insert(h uint64, src, row int32) int32 {
	slot := int(h) & gi.mask
	for {
		p := gi.slots[slot]
		if p == 0 {
			g := int32(len(gi.refs))
			gi.refs = append(gi.refs, rowRef{src: src, row: row})
			gi.hashes = append(gi.hashes, h)
			gi.slots[slot] = g + 1
			if len(gi.refs)*4 >= len(gi.slots)*3 { // 75% load factor
				gi.grow()
			}
			return g
		}
		g := p - 1
		if gi.hashes[g] == h {
			r := gi.refs[g]
			if keyRowsEqual(gi.srcs[r.src], int(r.row), gi.srcs[src], int(row)) {
				return g
			}
		}
		slot = (slot + 1) & gi.mask
	}
}

// find returns the group id of the key tuple at (src, row), or -1. It
// never mutates the index, so concurrent probe workers may share it.
func (gi *groupIndex) find(h uint64, src, row int32) int32 {
	slot := int(h) & gi.mask
	for {
		p := gi.slots[slot]
		if p == 0 {
			return -1
		}
		g := p - 1
		if gi.hashes[g] == h {
			r := gi.refs[g]
			if keyRowsEqual(gi.srcs[r.src], int(r.row), gi.srcs[src], int(row)) {
				return g
			}
		}
		slot = (slot + 1) & gi.mask
	}
}

// grow doubles the slot array and reinserts every group by its stored
// hash — no key comparisons are needed because group ids are unique.
func (gi *groupIndex) grow() {
	next := make([]int32, len(gi.slots)*2)
	mask := len(next) - 1
	for g, h := range gi.hashes {
		slot := int(h) & mask
		for next[slot] != 0 {
			slot = (slot + 1) & mask
		}
		next[slot] = int32(g) + 1
	}
	gi.slots, gi.mask = next, mask
}

// distinctSet tracks (group, value) pairs for COUNT(DISTINCT ...): the
// same open-addressing layout as groupIndex, with the group id mixed into
// the slot hash and entry equality requiring both the group id and the
// typed value to match. Entries reference their source vector (one per
// morsel), so merging partial sets re-inserts entries in insertion order
// with remapped group ids and never materializes values.
type distinctSet struct {
	slots  []int32 // entry index + 1; 0 = empty
	mask   int
	hashes []uint64 // per entry: VALUE hash (group folded in at probe time)
	groups []int32  // per entry: group id
	refs   []rowRef // per entry: value row
	srcs   []*Vector
}

func newDistinctSet() *distinctSet {
	const capacity = 64
	return &distinctSet{slots: make([]int32, capacity), mask: capacity - 1}
}

// addSource registers a value vector and returns its source index.
func (ds *distinctSet) addSource(v *Vector) int32 {
	ds.srcs = append(ds.srcs, v)
	return int32(len(ds.srcs) - 1)
}

func (ds *distinctSet) slotHash(valHash uint64, g int32) uint64 {
	return mix64(valHash ^ mix64(uint64(g)+0x51ed270b))
}

// insert adds (group g, value at (src,row)) and reports whether the pair
// was new.
func (ds *distinctSet) insert(valHash uint64, g, src, row int32) bool {
	slot := int(ds.slotHash(valHash, g)) & ds.mask
	for {
		p := ds.slots[slot]
		if p == 0 {
			e := int32(len(ds.refs))
			ds.refs = append(ds.refs, rowRef{src: src, row: row})
			ds.hashes = append(ds.hashes, valHash)
			ds.groups = append(ds.groups, g)
			ds.slots[slot] = e + 1
			if len(ds.refs)*4 >= len(ds.slots)*3 {
				ds.grow()
			}
			return true
		}
		e := p - 1
		if ds.groups[e] == g && ds.hashes[e] == valHash {
			r := ds.refs[e]
			if valueRowsEqual(ds.srcs[r.src], int(r.row), ds.srcs[src], int(row)) {
				return false
			}
		}
		slot = (slot + 1) & ds.mask
	}
}

func (ds *distinctSet) grow() {
	next := make([]int32, len(ds.slots)*2)
	mask := len(next) - 1
	for e := range ds.hashes {
		slot := int(ds.slotHash(ds.hashes[e], ds.groups[e])) & mask
		for next[slot] != 0 {
			slot = (slot + 1) & mask
		}
		next[slot] = int32(e) + 1
	}
	ds.slots, ds.mask = next, mask
}

// mergeFrom folds src's entries into ds in insertion order, remapping
// group ids through gmap (nil = identity, -1 = skip) and incrementing
// count[g] for every pair new to ds.
func (ds *distinctSet) mergeFrom(src *distinctSet, gmap []int, count []int64) {
	srcMap := make([]int32, len(src.srcs))
	for i, v := range src.srcs {
		srcMap[i] = ds.addSource(v)
	}
	for e := range src.hashes {
		g := int(src.groups[e])
		if gmap != nil {
			if g = gmap[g]; g < 0 {
				continue
			}
		}
		r := src.refs[e]
		if ds.insert(src.hashes[e], int32(g), srcMap[r.src], r.row) {
			count[g]++
		}
	}
}

// valueRowsEqual is keyRowsEqual for a single column pair.
func valueRowsEqual(a *Vector, ra int, b *Vector, rb int) bool {
	na, nb := a.IsNull(ra), b.IsNull(rb)
	if na || nb {
		return na == nb
	}
	switch a.typ {
	case Int64:
		return a.i64[ra] == b.i64[rb]
	case Float64:
		return floatKeyBits(a.f64[ra]) == floatKeyBits(b.f64[rb])
	case Bool:
		return a.b[ra] == b.b[rb]
	case String:
		if a.dict == b.dict {
			return a.codes[ra] == b.codes[rb]
		}
		return a.dict.Value(a.codes[ra]) == b.dict.Value(b.codes[rb])
	}
	return false
}

// --- scratch buffer pools ---
//
// Per-morsel hash and selection buffers are recycled across morsels and
// queries instead of growing from nil each time; the pools keep the hot
// aggregation/join paths allocation-free per row.

var hashBufPool = sync.Pool{New: func() any { b := make([]uint64, 0, DefaultMorselSize); return &b }}

// getHashBuf returns a length-n hash buffer (contents undefined).
func getHashBuf(n int) []uint64 {
	bp := hashBufPool.Get().(*[]uint64)
	b := *bp
	if cap(b) < n {
		b = make([]uint64, n)
	}
	return b[:n]
}

func putHashBuf(b []uint64) {
	hashBufPool.Put(&b)
}

var selBufPool = sync.Pool{New: func() any { s := make([]int32, 0, DefaultMorselSize); return &s }}

// getSelBuf returns an empty selection buffer with capacity ≥ capHint.
func getSelBuf(capHint int) []int32 {
	sp := selBufPool.Get().(*[]int32)
	s := *sp
	if cap(s) < capHint {
		s = make([]int32, 0, capHint)
	}
	return s[:0]
}

func putSelBuf(s []int32) {
	selBufPool.Put(&s)
}
