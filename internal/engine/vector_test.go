package engine

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitmap(t *testing.T) {
	b := NewBitmap(130)
	if b.Len() != 130 || b.hasNull(130) {
		t.Fatalf("fresh bitmap: len=%d hasNull=%v", b.Len(), b.hasNull(130))
	}
	b.Set(129, false)
	if !b.hasNull(130) || b.hasNull(129) {
		t.Fatalf("a NULL in the tail word: hasNull(130)=%v hasNull(129)=%v", b.hasNull(130), b.hasNull(129))
	}
	b.Set(0, false)
	b.Set(64, false)
	if !b.hasNull(1) || b.slice(1, 64).hasNull(63) || !b.slice(64, 65).hasNull(1) || b.slice(65, 129).hasNull(64) || b.slice(128, 129).hasNull(1) {
		t.Fatal("hasNull wrong across word boundaries and views")
	}
	if b.Get(0) || b.Get(64) || b.Get(129) || !b.Get(1) || !b.Get(63) || !b.Get(65) {
		t.Fatal("Get/Set mismatch around word boundaries")
	}
	b.Set(64, true)
	if !b.Get(64) {
		t.Fatal("re-Set failed")
	}
	var nilB *Bitmap
	if !nilB.Get(12345) || nilB.hasNull(12345) {
		t.Fatal("nil bitmap must report valid")
	}
	if nilB.Clone() != nil {
		t.Fatal("Clone of nil should be nil")
	}
}

func TestBitmapAppend(t *testing.T) {
	b := NewBitmap(0)
	for i := 0; i < 200; i++ {
		b.Append(i%3 != 0)
	}
	if b.Len() != 200 {
		t.Fatalf("Len = %d", b.Len())
	}
	for i := 0; i < 200; i++ {
		if b.Get(i) != (i%3 != 0) {
			t.Fatalf("bit %d wrong", i)
		}
	}
}

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.Code("alpha")
	b := d.Code("beta")
	if a2 := d.Code("alpha"); a2 != a {
		t.Fatal("re-interning changed code")
	}
	if d.Size() != 2 {
		t.Fatalf("Size = %d", d.Size())
	}
	if d.Value(a) != "alpha" || d.Value(b) != "beta" {
		t.Fatal("Value mismatch")
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Fatal("Lookup of absent value succeeded")
	}
}

func TestVectorAppendAndValue(t *testing.T) {
	v := NewVector(Float64)
	v.AppendFloat64(1.5)
	v.AppendNull()
	v.AppendFloat64(2.5)
	if v.Len() != 3 {
		t.Fatalf("Len = %d", v.Len())
	}
	if v.Value(0) != 1.5 || v.Value(1) != nil || v.Value(2) != 2.5 {
		t.Fatalf("values: %v %v %v", v.Value(0), v.Value(1), v.Value(2))
	}
	if !v.IsNull(1) || v.IsNull(0) {
		t.Fatal("null tracking wrong")
	}
}

func TestVectorAppendValueConversions(t *testing.T) {
	v := NewVector(Int64)
	for _, x := range []any{int64(1), 2, 3.0, "4", nil} {
		if err := v.AppendValue(x); err != nil {
			t.Fatalf("AppendValue(%v): %v", x, err)
		}
	}
	want := []any{int64(1), int64(2), int64(3), int64(4), nil}
	for i, w := range want {
		if v.Value(i) != w {
			t.Fatalf("value %d = %v, want %v", i, v.Value(i), w)
		}
	}
	if err := v.AppendValue("not a number"); err == nil {
		t.Fatal("expected conversion error")
	}

	s := NewVector(String)
	if err := s.AppendValue("x"); err != nil {
		t.Fatal(err)
	}
	if s.StringAt(0) != "x" {
		t.Fatal("string append")
	}

	b := NewVector(Bool)
	if err := b.AppendValue(true); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendValue("false"); err != nil {
		t.Fatal(err)
	}
	if b.Bools()[0] != true || b.Bools()[1] != false {
		t.Fatal("bool append")
	}
}

func TestVectorGather(t *testing.T) {
	v := NewVector(Float64)
	v.AppendFloat64(10)
	v.AppendNull()
	v.AppendFloat64(30)
	v.AppendFloat64(40)
	g := v.Gather([]int32{3, 1, 0})
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
	if g.Float64s()[0] != 40 || !g.IsNull(1) || g.Float64s()[2] != 10 {
		t.Fatal("gather wrong")
	}
}

func TestVectorGatherString(t *testing.T) {
	v := NewStringVector([]string{"a", "b", "c"}, nil)
	g := v.Gather([]int32{2, 0})
	if g.StringAt(0) != "c" || g.StringAt(1) != "a" {
		t.Fatal("string gather wrong")
	}
	if g.StrDict() != v.StrDict() {
		t.Fatal("gather should share the dictionary")
	}
}

func TestCastFloat64(t *testing.T) {
	iv := NewInt64Vector([]int64{1, 2, 3}, nil)
	f := iv.CastFloat64()
	if f.Float64s()[2] != 3 {
		t.Fatal("int cast")
	}
	bv := NewBoolVector([]bool{true, false}, nil)
	f = bv.CastFloat64()
	if f.Float64s()[0] != 1 || f.Float64s()[1] != 0 {
		t.Fatal("bool cast")
	}
	sv := NewStringVector([]string{"2.5", "oops"}, nil)
	f = sv.CastFloat64()
	if f.Float64s()[0] != 2.5 {
		t.Fatal("string cast value")
	}
	if !f.IsNull(1) {
		t.Fatal("unparseable string should cast to NULL")
	}
}

// Property: Gather preserves values and validity for random selections.
func TestGatherProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		v := NewVector(Float64)
		for i := 0; i < n; i++ {
			if r.Intn(5) == 0 {
				v.AppendNull()
			} else {
				v.AppendFloat64(r.Float64())
			}
		}
		k := r.Intn(100)
		sel := make([]int32, k)
		for i := range sel {
			sel[i] = int32(r.Intn(n))
		}
		g := v.Gather(sel)
		for i, s := range sel {
			if g.IsNull(i) != v.IsNull(int(s)) {
				return false
			}
			if !g.IsNull(i) && g.Float64s()[i] != v.Float64s()[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTableBasics(t *testing.T) {
	schema := Schema{{"id", Int64}, {"name", String}, {"score", Float64}}
	tab := NewTable(schema)
	if err := tab.AppendRow(int64(1), "ann", 9.5); err != nil {
		t.Fatal(err)
	}
	if err := tab.AppendRow(int64(2), "bob", nil); err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 || tab.NumCols() != 3 {
		t.Fatalf("dims %dx%d", tab.NumRows(), tab.NumCols())
	}
	row := tab.Row(1)
	if row[0] != int64(2) || row[1] != "bob" || row[2] != nil {
		t.Fatalf("Row = %v", row)
	}
	if tab.ColByName("SCORE") == nil {
		t.Fatal("column lookup should be case-insensitive")
	}
	if tab.ColByName("missing") != nil {
		t.Fatal("absent column should be nil")
	}
	if err := tab.AppendRow(int64(3)); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestTableFloat64Column(t *testing.T) {
	tab := NewTable(Schema{{"x", Float64}})
	tab.AppendRow(1.0)
	tab.AppendRow(nil)
	tab.AppendRow(3.0)
	vals, missing, err := tab.Float64Column("x")
	if err != nil {
		t.Fatal(err)
	}
	if missing != 1 || len(vals) != 2 || vals[0] != 1 || vals[1] != 3 {
		t.Fatalf("vals=%v missing=%d", vals, missing)
	}
	if _, _, err := tab.Float64Column("nope"); err == nil {
		t.Fatal("expected error for unknown column")
	}
}

func TestTableAppendSchemaMismatch(t *testing.T) {
	a := NewTable(Schema{{"x", Float64}})
	b := NewTable(Schema{{"y", Float64}})
	if err := a.Append(b); err == nil {
		t.Fatal("expected schema mismatch error")
	}
}

func TestTableGather(t *testing.T) {
	tab := NewTable(Schema{{"x", Int64}})
	for i := 0; i < 5; i++ {
		tab.AppendRow(int64(i))
	}
	g := tab.Gather([]int32{4, 2})
	if g.NumRows() != 2 || g.Col(0).Int64s()[0] != 4 || g.Col(0).Int64s()[1] != 2 {
		t.Fatal("table gather wrong")
	}
}

func TestTypeStrings(t *testing.T) {
	want := map[Type]string{Float64: "DOUBLE", Int64: "BIGINT", String: "VARCHAR", Bool: "BOOLEAN"}
	for typ, s := range want {
		if typ.String() != s {
			t.Fatalf("%v.String() = %q", typ, typ.String())
		}
	}
	if Type(99).String() == "" {
		t.Fatal("unknown type should still render")
	}
	for _, name := range []string{"DOUBLE", "FLOAT", "REAL", "BIGINT", "INT", "VARCHAR", "TEXT", "BOOLEAN"} {
		if _, err := ParseType(name); err != nil {
			t.Fatalf("ParseType(%s): %v", name, err)
		}
	}
	if _, err := ParseType("BLOB"); err == nil {
		t.Fatal("unknown type name should fail")
	}
}

func TestVectorCloneAndCodes(t *testing.T) {
	v := NewStringVector([]string{"a", "b", "a"}, nil)
	if len(v.Codes()) != 3 || v.Codes()[0] != v.Codes()[2] {
		t.Fatal("codes should dedupe via dict")
	}
	c := v.Clone()
	c.AppendString("z")
	if v.Len() != 3 || c.Len() != 4 {
		t.Fatal("Clone aliases the original")
	}
	f := NewFloat64Vector([]float64{1, 2}, NewBitmap(2))
	fc := f.Clone()
	fc.Valid().Set(0, false)
	if f.IsNull(0) {
		t.Fatal("Clone shares the bitmap")
	}
}
