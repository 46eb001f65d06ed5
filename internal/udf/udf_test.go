package udf

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"mip/internal/engine"
)

func testDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.NewDB()
	for _, s := range []string{
		`CREATE TABLE obs (x DOUBLE, y DOUBLE)`,
		`INSERT INTO obs VALUES (1, 3), (2, 5), (3, 7), (4, 9)`,
	} {
		if _, err := db.Query(s); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// resolved evaluates sql into a relation argument, the way a caller hands
// Exec an already-resolved input.
func resolved(t *testing.T, db *engine.DB, sql string) Value {
	t.Helper()
	tab, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	return RelationValue(tab)
}

// sumUDF computes column sums of its relation input — the simplest local
// step shape (relation in, transfer out).
var sumUDF = &Def{
	Name:   "col_sums",
	Doc:    "sums every DOUBLE column of the input relation",
	Inputs: []IOSpec{{Name: "data", Kind: Relation}},
	Outputs: []IOSpec{
		{Name: "sums", Kind: Transfer},
	},
	Body: func(ctx *Ctx, args []Value) ([]Value, error) {
		tab := args[0].Table
		out := map[string]any{}
		for i, col := range tab.Schema() {
			if col.Type != engine.Float64 {
				continue
			}
			var s float64
			v := tab.Col(i)
			for r := 0; r < v.Len(); r++ {
				if !v.IsNull(r) {
					s += v.Float64s()[r]
				}
			}
			out[col.Name] = s
		}
		return []Value{TransferValue(out)}, nil
	},
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(sumUDF); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(sumUDF); err == nil {
		t.Fatal("duplicate registration should fail")
	}
	if r.Lookup("col_sums") == nil || r.Lookup("nope") != nil {
		t.Fatal("lookup broken")
	}
	if names := r.Names(); len(names) != 1 || names[0] != "col_sums" {
		t.Fatalf("Names = %v", names)
	}
}

func TestRegisterInvalid(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(&Def{Name: "", Body: sumUDF.Body}); err == nil {
		t.Fatal("empty name should fail")
	}
	if err := r.Register(&Def{Name: "x"}); err == nil {
		t.Fatal("missing body should fail")
	}
	if err := r.Register(&Def{Name: "x", Body: sumUDF.Body,
		Outputs: []IOSpec{{Kind: Relation}}}); err == nil {
		t.Fatal("unnamed relation output should fail")
	}
}

func TestExecWithRelationQuery(t *testing.T) {
	db := testDB(t)
	r := NewRegistry()
	r.MustRegister(sumUDF)
	e := &Exec{Registry: r, DB: db}
	outs, err := e.Call(context.Background(), "col_sums", []Value{resolved(t, db, `SELECT x, y FROM obs WHERE x > 1`)})
	if err != nil {
		t.Fatal(err)
	}
	sums := outs[0].Transfer.(map[string]any)
	if sums["x"] != 9.0 || sums["y"] != 21.0 {
		t.Fatalf("sums = %v", sums)
	}
}

func TestExecDirectRelation(t *testing.T) {
	db := testDB(t)
	r := NewRegistry()
	r.MustRegister(sumUDF)
	e := &Exec{Registry: r, DB: db}
	tab, err := db.Query(`SELECT x, y FROM obs`)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := e.Call(context.Background(), "col_sums", []Value{RelationValue(tab)})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Transfer.(map[string]any)["x"] != 10.0 {
		t.Fatalf("sums = %v", outs[0].Transfer)
	}
}

func TestExecErrors(t *testing.T) {
	db := testDB(t)
	r := NewRegistry()
	r.MustRegister(sumUDF)
	e := &Exec{Registry: r, DB: db}
	ctx := context.Background()
	if _, err := e.Call(ctx, "nope", nil); err == nil {
		t.Fatal("unknown UDF should fail")
	}
	if _, err := e.Call(ctx, "col_sums", nil); err == nil {
		t.Fatal("arity mismatch should fail")
	}
	if _, err := e.Call(ctx, "col_sums", make([]Value, 1)); err == nil {
		t.Fatal("missing relation input should fail")
	}
	if _, err := e.Call(ctx, "col_sums", []Value{ScalarValue(1.0)}); err == nil {
		t.Fatal("non-relation value in a relation slot should fail")
	}
}

func TestSchemaCheck(t *testing.T) {
	db := testDB(t)
	strict := &Def{
		Name:   "strict",
		Inputs: []IOSpec{{Name: "data", Kind: Relation, Schema: engine.Schema{{Name: "a", Type: engine.Float64}}}},
		Outputs: []IOSpec{
			{Name: "out", Kind: Scalar},
		},
		Body: func(ctx *Ctx, args []Value) ([]Value, error) {
			return []Value{ScalarValue(1.0)}, nil
		},
	}
	r := NewRegistry()
	r.MustRegister(strict)
	e := &Exec{Registry: r, DB: db}
	if _, err := e.Call(context.Background(), "strict", []Value{resolved(t, db, `SELECT x, y FROM obs`)}); err == nil {
		t.Fatal("schema mismatch should fail")
	}
	if _, err := e.Call(context.Background(), "strict", []Value{resolved(t, db, `SELECT x AS a FROM obs`)}); err != nil {
		t.Fatalf("matching schema should pass: %v", err)
	}
}

// A UDF using loopback queries mid-execution: computes residual variance by
// first asking the engine for the means (as the paper's linear regression
// local step does via SQL loopback).
func TestLoopbackQueries(t *testing.T) {
	db := testDB(t)
	lb := &Def{
		Name:   "resid_var",
		Inputs: []IOSpec{{Name: "table_name", Kind: Scalar}},
		Outputs: []IOSpec{
			{Name: "result", Kind: Transfer},
		},
		Body: func(ctx *Ctx, args []Value) ([]Value, error) {
			name := args[0].Scalar.(string)
			means, err := ctx.Loopback(fmt.Sprintf(`SELECT avg(x) AS mx, avg(y) AS my FROM %s`, name))
			if err != nil {
				return nil, err
			}
			mx := means.ColByName("mx").Float64s()[0]
			rows, err := ctx.Loopback(fmt.Sprintf(`SELECT sum((x - %v) * (x - %v)) AS ss, count(x) AS n FROM %s`, mx, mx, name))
			if err != nil {
				return nil, err
			}
			ss := rows.ColByName("ss").Float64s()[0]
			n := float64(rows.ColByName("n").Int64s()[0])
			return []Value{TransferValue(map[string]any{"var": ss / (n - 1)})}, nil
		},
	}
	r := NewRegistry()
	r.MustRegister(lb)
	e := &Exec{Registry: r, DB: db}
	outs, err := e.Call(context.Background(), "resid_var", []Value{ScalarValue("obs")})
	if err != nil {
		t.Fatal(err)
	}
	got := outs[0].Transfer.(map[string]any)["var"].(float64)
	want := 5.0 / 3.0 // var of 1,2,3,4
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("var = %v, want %v", got, want)
	}
}

// Relation outputs must be registered back into the engine so later steps
// can address them by name (results as pointers, per the paper).
func TestRelationOutputMaterialized(t *testing.T) {
	db := testDB(t)
	maker := &Def{
		Name:    "make_squares",
		Inputs:  []IOSpec{{Name: "data", Kind: Relation}},
		Outputs: []IOSpec{{Name: "squares", Kind: Relation}},
		Body: func(ctx *Ctx, args []Value) ([]Value, error) {
			in := args[0].Table
			out := engine.NewTable(engine.Schema{{Name: "sq", Type: engine.Float64}})
			xs := in.ColByName("x").Float64s()
			for _, x := range xs {
				if err := out.AppendRow(x * x); err != nil {
					return nil, err
				}
			}
			return []Value{RelationValue(out)}, nil
		},
	}
	r := NewRegistry()
	r.MustRegister(maker)
	e := &Exec{Registry: r, DB: db}
	if _, err := e.Call(context.Background(), "make_squares", []Value{resolved(t, db, `SELECT x FROM obs`)}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT sum(sq) AS s FROM squares`)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Col(0).Float64s()[0]; s != 30 {
		t.Fatalf("sum of squares = %v", s)
	}
}

func TestGenerateSQL(t *testing.T) {
	sql := GenerateSQL(sumUDF, []string{"model_data"}, "result_0")
	for _, want := range []string{"CREATE OR REPLACE FUNCTION col_sums", "RETURNS TABLE(sums JSON)", "SELECT * FROM col_sums(model_data) INTO result_0;"} {
		if !strings.Contains(sql, want) {
			t.Fatalf("generated SQL missing %q:\n%s", want, sql)
		}
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{Relation, Tensor, Scalar, Transfer, State}
	names := []string{"relation", "tensor", "scalar", "transfer", "state"}
	for i, k := range kinds {
		if k.String() != names[i] {
			t.Fatalf("Kind %d = %q", i, k.String())
		}
	}
}
