// Package engine implements the analytics data engine that MIP Worker nodes
// run their local computation steps inside. It stands in for MonetDB in the
// paper's deployment and keeps its execution model: column-at-a-time
// vectorized operators over typed columns with validity bitmaps and
// dictionary-encoded strings, a SQL subset compiled to vectorized plans,
// and non-materialized remote/merge tables used by the federation layer.
package engine

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"strconv"
	"sync"
)

// Type enumerates the column types the engine supports.
type Type uint8

// Column types.
const (
	Float64 Type = iota // double precision floating point
	Int64               // 64-bit signed integer
	String              // dictionary-encoded text
	Bool                // boolean
)

// String returns the SQL name of the type.
func (t Type) String() string {
	switch t {
	case Float64:
		return "DOUBLE"
	case Int64:
		return "BIGINT"
	case String:
		return "VARCHAR"
	case Bool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// ParseType maps SQL type names to engine types.
func ParseType(s string) (Type, error) {
	switch s {
	case "DOUBLE", "FLOAT", "REAL", "DECIMAL", "NUMERIC":
		return Float64, nil
	case "BIGINT", "INT", "INTEGER", "SMALLINT", "TINYINT":
		return Int64, nil
	case "VARCHAR", "TEXT", "STRING", "CHAR", "CLOB":
		return String, nil
	case "BOOLEAN", "BOOL":
		return Bool, nil
	}
	return 0, fmt.Errorf("engine: unknown type %q", s)
}

// Bitmap is a packed validity bitmap: bit i set means row i is valid
// (non-NULL). A nil *Bitmap means "all valid".
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns an all-valid bitmap of length n.
func NewBitmap(n int) *Bitmap {
	b := &Bitmap{words: make([]uint64, (n+63)/64), n: n}
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] = (1 << r) - 1
	}
	return b
}

// Len returns the number of rows covered.
func (b *Bitmap) Len() int { return b.n }

// Get reports whether row i is valid.
func (b *Bitmap) Get(i int) bool {
	if b == nil {
		return true
	}
	return b.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Set marks row i valid (v=true) or NULL (v=false).
func (b *Bitmap) Set(i int, v bool) {
	if v {
		b.words[i/64] |= 1 << (uint(i) % 64)
	} else {
		b.words[i/64] &^= 1 << (uint(i) % 64)
	}
}

// Append extends the bitmap by one row with the given validity.
func (b *Bitmap) Append(v bool) {
	if b.n%64 == 0 {
		b.words = append(b.words, 0)
	}
	b.n++
	b.Set(b.n-1, v)
}

// nullWord returns word w's NULL bits (bit set = NULL), masked to the
// first n rows: a sliced view's last word may carry stray bits past its
// end, and NewBitmap's tail bits would read as NULL.
func (b *Bitmap) nullWord(w, n int) uint64 {
	x := ^b.words[w]
	if r := n - 64*w; r < 64 {
		x &= 1<<r - 1
	}
	return x
}

// hasNull reports whether any of the first n rows is NULL, a word at a
// time; a nil bitmap has none.
func (b *Bitmap) hasNull(n int) bool {
	if b == nil {
		return false
	}
	for w := 0; 64*w < n; w++ {
		if b.nullWord(w, n) != 0 {
			return true
		}
	}
	return false
}

// appendNulls appends the first n rows' NULL bits to buf, packed
// little-endian into (n+7)/8 bytes: the table stream's null bitmap.
func (b *Bitmap) appendNulls(buf []byte, n int) []byte {
	end := len(buf) + (n+7)/8
	for w := 0; 64*w < n; w++ {
		buf = binary.LittleEndian.AppendUint64(buf, b.nullWord(w, n))
	}
	return buf[:end]
}

// bitmapOfNulls reads back what appendNulls wrote for n rows. It is sized
// by p, so a forged n allocates nothing; a nil p (short input) yields nil.
func bitmapOfNulls(p []byte, n int) *Bitmap {
	if p == nil {
		return nil
	}
	b := &Bitmap{words: make([]uint64, (len(p)+7)/8), n: n}
	for i := range b.words {
		var w [8]byte
		copy(w[:], p[8*i:])
		b.words[i] = binary.LittleEndian.Uint64(w[:])
		b.words[i] = b.nullWord(i, n) // the inversion works both ways
	}
	return b
}

// slice returns a bitmap view of rows [lo, hi). When lo is word-aligned
// (every morsel boundary is — morsel sizes are multiples of 64) the view
// shares the parent's words with zero copying, clipped so that an append
// reallocates; the bits past hi in its last word may be stray, so word-wise
// consumers must mask the tail (see mergeValid). Sliced bitmaps are
// read-only views: a Set would corrupt the parent.
func (b *Bitmap) slice(lo, hi int) *Bitmap {
	if b == nil {
		return nil
	}
	if lo%64 == 0 {
		end := (hi + 63) / 64
		return &Bitmap{words: b.words[lo/64 : end : end], n: hi - lo}
	}
	out := NewBitmap(hi - lo)
	for i := lo; i < hi; i++ {
		if !b.Get(i) {
			out.Set(i-lo, false)
		}
	}
	return out
}

// Clone deep-copies the bitmap. Clone of nil is nil.
func (b *Bitmap) Clone() *Bitmap {
	if b == nil {
		return nil
	}
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &Bitmap{words: w, n: b.n}
}

// Dict is a shared string dictionary for dictionary-encoded columns. A
// dictionary a DB has published is never grown: a write that interns a new
// string interns it into a clone (see covering).
type Dict struct {
	values []string
	index  map[string]int32
	// hashes memoizes each code's content hash for the vectorized key
	// kernels (see codeHashes); append-only, guarded by hashMu so
	// concurrent morsel workers sharing the dict compute each hash once.
	hashMu sync.Mutex
	hashes []uint64
	// ranks memoizes each code's rank in value order for string sort
	// keys (see sortRanks), under hashMu.
	ranks []int32
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{index: make(map[string]int32)}
}

// Code interns s and returns its code.
func (d *Dict) Code(s string) int32 {
	if c, ok := d.index[s]; ok {
		return c
	}
	c := int32(len(d.values))
	d.values = append(d.values, s)
	d.index[s] = c
	return c
}

// covering returns d when it already holds every value of src, else a
// clone of d for src's values to be interned into. The clone's slices are
// clipped, so its appends never write into arrays d shares.
func (d *Dict) covering(src *Dict) *Dict {
	for _, s := range src.values {
		if _, ok := d.index[s]; !ok {
			return &Dict{values: d.values[:len(d.values):len(d.values)], index: maps.Clone(d.index)}
		}
	}
	return d
}

// Lookup returns the code for s and whether it is present.
func (d *Dict) Lookup(s string) (int32, bool) {
	c, ok := d.index[s]
	return c, ok
}

// Value returns the string for code c.
func (d *Dict) Value(c int32) string { return d.values[c] }

// Size returns the number of distinct values.
func (d *Dict) Size() int { return len(d.values) }

// Vector is a typed column fragment: the unit the vectorized kernels
// operate on. Exactly one of the data slices is populated, per typ.
type Vector struct {
	typ   Type
	f64   []float64
	i64   []int64
	codes []int32 // string codes into dict
	dict  *Dict
	b     []bool
	valid *Bitmap // nil means all rows valid
}

// NewVector returns an empty vector of the given type.
func NewVector(t Type) *Vector {
	v := &Vector{typ: t}
	if t == String {
		v.dict = NewDict()
	}
	return v
}

// NewFloat64Vector wraps vals in a vector (no copy); valid may be nil.
func NewFloat64Vector(vals []float64, valid *Bitmap) *Vector {
	return &Vector{typ: Float64, f64: vals, valid: valid}
}

// NewInt64Vector wraps vals in a vector (no copy); valid may be nil.
func NewInt64Vector(vals []int64, valid *Bitmap) *Vector {
	return &Vector{typ: Int64, i64: vals, valid: valid}
}

// NewBoolVector wraps vals in a vector (no copy); valid may be nil.
func NewBoolVector(vals []bool, valid *Bitmap) *Vector {
	return &Vector{typ: Bool, b: vals, valid: valid}
}

// NewStringVector builds a dictionary-encoded vector from vals.
func NewStringVector(vals []string, valid *Bitmap) *Vector {
	v := &Vector{typ: String, dict: NewDict(), valid: valid}
	v.codes = make([]int32, len(vals))
	for i, s := range vals {
		v.codes[i] = v.dict.Code(s)
	}
	return v
}

// Type returns the vector's type.
func (v *Vector) Type() Type { return v.typ }

// Len returns the number of rows.
func (v *Vector) Len() int {
	switch v.typ {
	case Float64:
		return len(v.f64)
	case Int64:
		return len(v.i64)
	case String:
		return len(v.codes)
	case Bool:
		return len(v.b)
	}
	return 0
}

// Valid returns the validity bitmap (nil = all valid).
func (v *Vector) Valid() *Bitmap { return v.valid }

// IsNull reports whether row i is NULL.
func (v *Vector) IsNull(i int) bool { return !v.valid.Get(i) }

// Float64s returns the float64 payload (valid only when Type()==Float64).
func (v *Vector) Float64s() []float64 { return v.f64 }

// Int64s returns the int64 payload (valid only when Type()==Int64).
func (v *Vector) Int64s() []int64 { return v.i64 }

// Bools returns the bool payload (valid only when Type()==Bool).
func (v *Vector) Bools() []bool { return v.b }

// StringAt returns the string at row i (valid only when Type()==String).
func (v *Vector) StringAt(i int) string { return v.dict.Value(v.codes[i]) }

// Codes returns the dictionary codes (valid only when Type()==String).
func (v *Vector) Codes() []int32 { return v.codes }

// StrDict returns the dictionary (valid only when Type()==String).
func (v *Vector) StrDict() *Dict { return v.dict }

// AppendFloat64 appends a float64 row.
func (v *Vector) AppendFloat64(x float64) {
	v.f64 = append(v.f64, x)
	if v.valid != nil {
		v.valid.Append(true)
	}
}

// AppendInt64 appends an int64 row.
func (v *Vector) AppendInt64(x int64) {
	v.i64 = append(v.i64, x)
	if v.valid != nil {
		v.valid.Append(true)
	}
}

// AppendBool appends a bool row.
func (v *Vector) AppendBool(x bool) {
	v.b = append(v.b, x)
	if v.valid != nil {
		v.valid.Append(true)
	}
}

// AppendString appends a string row.
func (v *Vector) AppendString(s string) {
	v.codes = append(v.codes, v.dict.Code(s))
	if v.valid != nil {
		v.valid.Append(true)
	}
}

// AppendNull appends a NULL row.
func (v *Vector) AppendNull() {
	n := v.Len()
	if v.valid == nil {
		v.valid = NewBitmap(n)
	}
	switch v.typ {
	case Float64:
		v.f64 = append(v.f64, math.NaN())
	case Int64:
		v.i64 = append(v.i64, 0)
	case String:
		v.codes = append(v.codes, v.dict.Code(""))
	case Bool:
		v.b = append(v.b, false)
	}
	v.valid.Append(false)
}

// AppendValue appends an arbitrary Go value, converting to the vector type.
// nil appends NULL.
func (v *Vector) AppendValue(x any) error {
	if x == nil {
		v.AppendNull()
		return nil
	}
	switch v.typ {
	case Float64:
		f, err := toFloat(x)
		if err != nil {
			return err
		}
		v.AppendFloat64(f)
	case Int64:
		switch t := x.(type) {
		case int64:
			v.AppendInt64(t)
		case int:
			v.AppendInt64(int64(t))
		case float64:
			v.AppendInt64(int64(t))
		case string:
			n, err := strconv.ParseInt(t, 10, 64)
			if err != nil {
				return err
			}
			v.AppendInt64(n)
		default:
			return fmt.Errorf("engine: cannot convert %T to BIGINT", x)
		}
	case String:
		s, ok := x.(string)
		if !ok {
			s = fmt.Sprint(x)
		}
		v.AppendString(s)
	case Bool:
		switch t := x.(type) {
		case bool:
			v.AppendBool(t)
		case string:
			b, err := strconv.ParseBool(t)
			if err != nil {
				return err
			}
			v.AppendBool(b)
		default:
			return fmt.Errorf("engine: cannot convert %T to BOOLEAN", x)
		}
	}
	return nil
}

func toFloat(x any) (float64, error) {
	switch t := x.(type) {
	case float64:
		return t, nil
	case float32:
		return float64(t), nil
	case int:
		return float64(t), nil
	case int64:
		return float64(t), nil
	case string:
		return strconv.ParseFloat(t, 64)
	}
	return 0, fmt.Errorf("engine: cannot convert %T to DOUBLE", x)
}

// Value returns row i as a Go value (nil for NULL).
func (v *Vector) Value(i int) any {
	if v.IsNull(i) {
		return nil
	}
	switch v.typ {
	case Float64:
		return v.f64[i]
	case Int64:
		return v.i64[i]
	case String:
		return v.StringAt(i)
	case Bool:
		return v.b[i]
	}
	return nil
}

// Gather returns a new vector holding the rows of v selected by sel, in
// order. This is the engine's positional-selection primitive (MonetDB's
// candidate lists).
func (v *Vector) Gather(sel []int32) *Vector {
	out := v.gatherTarget(len(sel))
	v.gatherInto(out, sel, 0)
	return out
}

// gatherTarget allocates the output of an n-row gather from v: v's type and
// dictionary, a payload of n rows, and a validity bitmap when v has one.
func (v *Vector) gatherTarget(n int) *Vector {
	out := &Vector{typ: v.typ, dict: v.dict}
	if v.valid != nil {
		out.valid = NewBitmap(n)
	}
	switch v.typ {
	case Float64:
		out.f64 = make([]float64, n)
	case Int64:
		out.i64 = make([]int64, n)
	case String:
		out.codes = make([]int32, n)
	case Bool:
		out.b = make([]bool, n)
	}
	return out
}

// gatherInto writes the rows of v selected by sel into rows [at,
// at+len(sel)) of out, a gatherTarget of v. Ranges starting at multiples of
// 64 share no validity word, so morsels may fill one target in parallel.
func (v *Vector) gatherInto(out *Vector, sel []int32, at int) {
	switch v.typ {
	case Float64:
		dst := out.f64[at : at+len(sel)]
		for i, s := range sel {
			dst[i] = v.f64[s]
		}
	case Int64:
		dst := out.i64[at : at+len(sel)]
		for i, s := range sel {
			dst[i] = v.i64[s]
		}
	case String:
		dst := out.codes[at : at+len(sel)]
		for i, s := range sel {
			dst[i] = v.codes[s]
		}
	case Bool:
		dst := out.b[at : at+len(sel)]
		for i, s := range sel {
			dst[i] = v.b[s]
		}
	}
	if v.valid != nil {
		for i, s := range sel {
			out.valid.Set(at+i, v.valid.Get(int(s)))
		}
	}
}

// Slice returns a zero-copy view of rows [lo, hi): the morsel primitive.
// The payload slices and the dictionary are shared with v, so slices are
// read-only — kernels must allocate fresh outputs, never mutate inputs. The
// payloads are clipped to the view (cap == len), so an append to one
// reallocates instead of writing into v's spare capacity.
func (v *Vector) Slice(lo, hi int) *Vector {
	out := &Vector{typ: v.typ, dict: v.dict, valid: v.valid.slice(lo, hi)}
	switch v.typ {
	case Float64:
		out.f64 = v.f64[lo:hi:hi]
	case Int64:
		out.i64 = v.i64[lo:hi:hi]
	case String:
		out.codes = v.codes[lo:hi:hi]
	case Bool:
		out.b = v.b[lo:hi:hi]
	}
	return out
}

// sliceVecs slices every vector to rows [lo, hi).
func sliceVecs(vs []*Vector, lo, hi int) []*Vector {
	out := make([]*Vector, len(vs))
	for i, v := range vs {
		out[i] = v.Slice(lo, hi)
	}
	return out
}

// GatherOuter is Gather extended with -1 selection entries, which produce
// NULL output rows (left-outer join padding). The NULL payload values match
// AppendNull. String outputs get a fresh dictionary — the source dictionary
// may be shared with concurrently-running queries and must not be mutated.
func (v *Vector) GatherOuter(sel []int32) *Vector {
	hasNull := false
	for _, s := range sel {
		if s < 0 {
			hasNull = true
			break
		}
	}
	if !hasNull {
		return v.Gather(sel)
	}
	n := len(sel)
	out := &Vector{typ: v.typ, valid: NewBitmap(n)}
	switch v.typ {
	case Float64:
		out.f64 = make([]float64, n)
		for i, s := range sel {
			if s < 0 {
				out.f64[i] = math.NaN()
				out.valid.Set(i, false)
			} else {
				out.f64[i] = v.f64[s]
				if v.valid != nil && !v.valid.Get(int(s)) {
					out.valid.Set(i, false)
				}
			}
		}
	case Int64:
		out.i64 = make([]int64, n)
		for i, s := range sel {
			if s < 0 {
				out.valid.Set(i, false)
			} else {
				out.i64[i] = v.i64[s]
				if v.valid != nil && !v.valid.Get(int(s)) {
					out.valid.Set(i, false)
				}
			}
		}
	case String:
		out.dict = NewDict()
		nullCode := out.dict.Code("")
		trans := make([]int32, v.dict.Size())
		for c := range trans {
			trans[c] = out.dict.Code(v.dict.Value(int32(c)))
		}
		out.codes = make([]int32, n)
		for i, s := range sel {
			if s < 0 {
				out.codes[i] = nullCode
				out.valid.Set(i, false)
			} else {
				out.codes[i] = trans[v.codes[s]]
				if v.valid != nil && !v.valid.Get(int(s)) {
					out.valid.Set(i, false)
				}
			}
		}
	case Bool:
		out.b = make([]bool, n)
		for i, s := range sel {
			if s < 0 {
				out.valid.Set(i, false)
			} else {
				out.b[i] = v.b[s]
				if v.valid != nil && !v.valid.Get(int(s)) {
					out.valid.Set(i, false)
				}
			}
		}
	}
	return out
}

// CastFloat64 returns a float64 view of a numeric vector, converting Int64
// and Bool element-wise. String vectors are parsed; unparseable values
// become NULL.
func (v *Vector) CastFloat64() *Vector {
	switch v.typ {
	case Float64:
		return v
	case Int64:
		out := make([]float64, len(v.i64))
		for i, x := range v.i64 {
			out[i] = float64(x)
		}
		return &Vector{typ: Float64, f64: out, valid: v.valid}
	case Bool:
		out := make([]float64, len(v.b))
		for i, x := range v.b {
			if x {
				out[i] = 1
			}
		}
		return &Vector{typ: Float64, f64: out, valid: v.valid}
	case String:
		out := make([]float64, len(v.codes))
		valid := NewBitmap(len(v.codes))
		for i := range v.codes {
			if v.IsNull(i) {
				valid.Set(i, false)
				continue
			}
			f, err := strconv.ParseFloat(v.StringAt(i), 64)
			if err != nil {
				valid.Set(i, false)
				out[i] = math.NaN()
				continue
			}
			out[i] = f
		}
		return &Vector{typ: Float64, f64: out, valid: valid}
	}
	return v
}

// Clone deep-copies the vector (the dictionary is shared).
func (v *Vector) Clone() *Vector {
	out := &Vector{typ: v.typ, dict: v.dict, valid: v.valid.Clone()}
	out.f64 = append([]float64(nil), v.f64...)
	out.i64 = append([]int64(nil), v.i64...)
	out.codes = append([]int32(nil), v.codes...)
	out.b = append([]bool(nil), v.b...)
	return out
}

// ByteSize estimates the heap bytes backing the vector's payload: typed
// slices plus the validity bitmap. String vectors count the code slice
// only — the dictionary is shared across gathered copies, so charging it
// to every vector would double-count.
func (v *Vector) ByteSize() int64 {
	b := int64(len(v.f64))*8 + int64(len(v.i64))*8 + int64(len(v.codes))*4 + int64(len(v.b))
	if v.valid != nil {
		b += int64(len(v.valid.words)) * 8
	}
	return b
}
