package engine

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// plannerDB builds a three-table cohort with deliberate multiplicities:
// scans holds two rows per subject and labels covers only a prefix, so
// join order changes intermediate shapes while the rowid-restore pass must
// keep the final output bit-identical to written-order execution.
func plannerDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db := NewDB(opts...)
	stmts := []string{
		`CREATE TABLE subjects (sid INT, age DOUBLE, site TEXT)`,
		`CREATE TABLE scans (sid INT, vol DOUBLE, q INT, scanner TEXT, series TEXT)`,
		`CREATE TABLE labels (sid INT, dx TEXT)`,
	}
	for _, s := range stmts {
		if _, err := db.Query(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	for sid := 0; sid < 40; sid++ {
		ins := fmt.Sprintf(`INSERT INTO subjects VALUES (%d, %d, 's%d')`, sid, 20+(sid*7)%50, sid%3)
		if _, err := db.Query(ins); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 80; i++ {
		ins := fmt.Sprintf(`INSERT INTO scans VALUES (%d, %d.25, %d, 'sc%d', 'ser%d')`, i%40, i, i%5, i%4, i%7)
		if _, err := db.Query(ins); err != nil {
			t.Fatal(err)
		}
	}
	dxs := []string{"CN", "MCI", "AD"}
	for sid := 0; sid < 30; sid++ {
		ins := fmt.Sprintf(`INSERT INTO labels VALUES (%d, '%s')`, sid, dxs[sid%3])
		if _, err := db.Query(ins); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// requireSameTable asserts schema, row count, null masks, and every cell are
// identical. Floats compare by bit pattern: the reorder guarantee is
// bit-identical results, not approximate ones.
func requireSameTable(t *testing.T, label string, got, want *Table) {
	t.Helper()
	gs, ws := got.Schema(), want.Schema()
	if len(gs) != len(ws) {
		t.Fatalf("%s: %d columns, want %d", label, len(gs), len(ws))
	}
	for i := range gs {
		if gs[i].Name != ws[i].Name || gs[i].Type != ws[i].Type {
			t.Fatalf("%s: column %d = %s %v, want %s %v", label, i, gs[i].Name, gs[i].Type, ws[i].Name, ws[i].Type)
		}
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: %d rows, want %d", label, got.NumRows(), want.NumRows())
	}
	for c := 0; c < got.NumCols(); c++ {
		gv, wv := got.Col(c), want.Col(c)
		for r := 0; r < got.NumRows(); r++ {
			if gv.IsNull(r) != wv.IsNull(r) {
				t.Fatalf("%s: null mask differs at row %d col %s", label, r, gs[c].Name)
			}
			if gv.IsNull(r) {
				continue
			}
			a, b := gv.Value(r), wv.Value(r)
			if af, aok := a.(float64); aok {
				bf, bok := b.(float64)
				if !bok || math.Float64bits(af) != math.Float64bits(bf) {
					t.Fatalf("%s: row %d col %s = %v, want %v (bitwise)", label, r, gs[c].Name, a, b)
				}
				continue
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: row %d col %s = %v, want %v", label, r, gs[c].Name, a, b)
			}
		}
	}
}

// TestJoinReorderEquivalenceCorpus is the acceptance corpus: every query
// must produce bit-identical tables across written-order vs reordered
// execution and serial vs parallel execution. Runs under -race via the CI
// -cpu matrix.
func TestJoinReorderEquivalenceCorpus(t *testing.T) {
	corpus := []string{
		// Equality filter on the last-written relation: reorder joins it first.
		`SELECT b.sid, s.vol, l.dx FROM subjects b JOIN scans s ON b.sid = s.sid JOIN labels l ON l.sid = b.sid WHERE l.dx = 'AD' AND s.q > 1`,
		// No filters: tie-break by declared schema width.
		`SELECT b.sid, b.site, s.scanner, l.dx FROM subjects b JOIN scans s ON b.sid = s.sid JOIN labels l ON l.sid = b.sid`,
		// SELECT * keeps full written column-block order.
		`SELECT * FROM subjects b JOIN scans s ON b.sid = s.sid JOIN labels l ON l.sid = b.sid WHERE s.q = 2`,
		// Aggregate over the reordered join.
		`SELECT l.dx, count(*) AS n, avg(s.vol) AS v FROM subjects b JOIN scans s ON b.sid = s.sid JOIN labels l ON l.sid = b.sid WHERE b.age > 30 GROUP BY l.dx ORDER BY l.dx`,
		// Cross-relation conjunct must stay residual above the joins.
		`SELECT b.sid, s.vol FROM subjects b JOIN scans s ON b.sid = s.sid JOIN labels l ON l.sid = b.sid WHERE b.age > s.q * 10 AND l.dx = 'MCI'`,
		// ORDER BY + LIMIT/OFFSET above the restored order.
		`SELECT b.sid, s.vol, l.dx FROM subjects b JOIN scans s ON b.sid = s.sid JOIN labels l ON l.sid = b.sid WHERE l.dx IN ('CN', 'AD') ORDER BY s.vol DESC LIMIT 7 OFFSET 3`,
		// Bare column names resolved by unique schema membership.
		`SELECT age, vol, dx FROM subjects b JOIN scans s ON b.sid = s.sid JOIN labels l ON l.sid = b.sid WHERE dx = 'CN' AND age > 25`,
		// LEFT join: reorder bails, pushdown must not touch the right side.
		`SELECT b.sid, l.dx FROM subjects b JOIN scans s ON b.sid = s.sid LEFT JOIN labels l ON l.sid = b.sid WHERE s.q >= 3`,
		// Range-only filters (class 1) on two relations.
		`SELECT b.sid, s.series FROM subjects b JOIN scans s ON b.sid = s.sid JOIN labels l ON l.sid = b.sid WHERE s.vol < 40 AND b.age < 45`,
	}
	type cfg struct {
		label string
		opts  []Option
	}
	ref := plannerDB(t, WithParallelism(1), WithJoinReorder(false))
	variants := []cfg{
		{"serial-reordered", []Option{WithParallelism(1), WithJoinReorder(true)}},
		{"parallel-written", []Option{WithParallelism(4), WithMorselSize(64), WithJoinReorder(false)}},
		{"parallel-reordered", []Option{WithParallelism(4), WithMorselSize(64), WithJoinReorder(true)}},
	}
	dbs := make([]*DB, len(variants))
	for i, v := range variants {
		dbs[i] = plannerDB(t, v.opts...)
	}
	for qi, sql := range corpus {
		want := q(t, ref, sql)
		for i, v := range variants {
			got := q(t, dbs[i], sql)
			requireSameTable(t, fmt.Sprintf("query %d under %s", qi, v.label), got, want)
		}
	}
}

// TestGreedyOrderPrefersEqualityFilteredRelation pins the heuristic: with an
// equality filter on the last-written relation, EXPLAIN must show that join
// executing first (deepest) and a restore-order stage on top.
func TestGreedyOrderPrefersEqualityFilteredRelation(t *testing.T) {
	db := plannerDB(t)
	sql := `SELECT b.sid, s.vol, l.dx FROM subjects b JOIN scans s ON b.sid = s.sid JOIN labels l ON l.sid = b.sid WHERE l.dx = 'AD' AND s.vol < 50`
	lines := planLines(t, db, "EXPLAIN "+sql)
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "restore written join order") {
		t.Fatalf("plan does not restore written order (so no reorder happened):\n%s", joined)
	}
	// Scans appear bottom-up: the labels scan must sit above (execute
	// before) the scans scan in the rendered tree.
	li := strings.Index(joined, "scan labels")
	si := strings.Index(joined, "scan scans")
	if li < 0 || si < 0 {
		t.Fatalf("plan lost a scan node:\n%s", joined)
	}
	if li > si {
		t.Errorf("equality-filtered labels should join before range-filtered scans:\n%s", joined)
	}
	// Both filters were pushed below the joins.
	if strings.Count(joined, "pushed") != 2 {
		t.Errorf("want 2 pushed filters in plan:\n%s", joined)
	}

	// EXPLAIN ANALYZE agrees and the measured result matches direct execution.
	direct := q(t, db, sql)
	res, qs, err := db.QueryWithStats("EXPLAIN ANALYZE " + sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() == 0 || qs.Root == nil {
		t.Fatal("EXPLAIN ANALYZE produced no measured tree")
	}
	if qs.Root.Op != "order" && int(qs.Root.RowsOut) != direct.NumRows() {
		t.Errorf("analyze root rows_out = %d, want %d", qs.Root.RowsOut, direct.NumRows())
	}
	var restored bool
	qs.Root.Walk(func(n *PlanNode) {
		if n.Op == "order" && strings.Contains(n.Detail, "restore written join order") {
			restored = true
			if int(n.RowsOut) != direct.NumRows() {
				t.Errorf("restore stage rows_out = %d, want %d", n.RowsOut, direct.NumRows())
			}
		}
	})
	if !restored {
		t.Errorf("measured tree lacks the restore-order stage:\n%s", qs.Root)
	}
}

// TestJoinReorderBailouts pins the cases where the planner must keep the
// written order.
func TestJoinReorderBailouts(t *testing.T) {
	db := plannerDB(t)
	for _, tc := range []struct {
		name, sql string
	}{
		{"left join", `SELECT b.sid FROM subjects b JOIN scans s ON b.sid = s.sid LEFT JOIN labels l ON l.sid = b.sid WHERE l.dx = 'AD'`},
		{"single join", `SELECT b.sid FROM subjects b JOIN labels l ON l.sid = b.sid WHERE l.dx = 'AD'`},
	} {
		lines := planLines(t, db, "EXPLAIN "+tc.sql)
		if joined := strings.Join(lines, "\n"); strings.Contains(joined, "restore written join order") {
			t.Errorf("%s: plan reordered but must not:\n%s", tc.name, joined)
		}
	}
	// Written-order resolution errors must be preserved: clause 1 referencing
	// clause 2's alias fails no matter what order might have fixed it.
	if _, err := db.Query(`SELECT b.sid FROM subjects b JOIN scans s ON s.sid = l.sid JOIN labels l ON l.sid = b.sid`); err == nil {
		t.Error("forward ON reference should fail as in written order")
	}
}

// TestPlanJoinsFilterPlacement unit-checks conjunct distribution.
func TestPlanJoinsFilterPlacement(t *testing.T) {
	db := plannerDB(t)
	st, err := Parse(`SELECT b.sid FROM subjects b JOIN scans s ON b.sid = s.sid LEFT JOIN labels l ON l.sid = b.sid WHERE s.q = 1 AND l.dx = 'AD' AND b.age > s.q`)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*SelectStmt)
	plan, err := db.cat.Load().planJoins(sel, true)
	if err != nil {
		t.Fatal(err)
	}
	if plan.reordered {
		t.Error("LEFT join plan must not reorder")
	}
	if plan.rels[1].pushed == nil || plan.rels[1].filterClass != 2 {
		t.Errorf("scans should carry a pushed class-2 filter, got %v class %d", plan.rels[1].pushed, plan.rels[1].filterClass)
	}
	if plan.rels[2].pushed != nil {
		t.Errorf("right side of LEFT JOIN must not receive pushed filter, got %v", plan.rels[2].pushed)
	}
	res := plan.residual
	if res == nil {
		t.Fatal("residual lost")
	}
	s := res.String()
	if !strings.Contains(s, "dx") || !strings.Contains(s, "age") {
		t.Errorf("residual = %s, want the LEFT-side conjunct and the cross-relation conjunct", s)
	}
	if strings.Contains(s, "(s.q = 1)") {
		t.Errorf("pushed conjunct still in residual: %s", s)
	}
}
