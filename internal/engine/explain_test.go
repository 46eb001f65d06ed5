package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"mip/internal/obs"
)

func explainDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	stmts := []string{
		`CREATE TABLE patients (id INT, hospital TEXT, age DOUBLE)`,
		`INSERT INTO patients VALUES (1, 'h1', 70), (2, 'h1', 75), (3, 'h2', 80), (4, 'h2', 65), (5, 'h3', 72)`,
		`CREATE TABLE scores (id INT, mmse DOUBLE)`,
		`INSERT INTO scores VALUES (1, 28), (2, 21), (3, 14), (4, 27), (6, 30)`,
	}
	for _, s := range stmts {
		if _, err := db.Query(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	return db
}

// planLines runs an EXPLAIN-family statement and returns the plan column.
func planLines(t *testing.T, db *DB, sql string) []string {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if res.NumCols() != 1 || res.Schema()[0].Name != "plan" {
		t.Fatalf("EXPLAIN result schema = %v, want one [plan] column", res.Schema())
	}
	lines := make([]string, res.NumRows())
	for i := range lines {
		lines[i] = res.Col(0).StringAt(i)
	}
	return lines
}

func TestExplainShapeWithoutExecution(t *testing.T) {
	db := explainDB(t)
	before := db.QueryCount()
	lines := planLines(t, db, `EXPLAIN SELECT hospital, avg(age) AS m FROM patients WHERE age > 60 GROUP BY hospital ORDER BY m LIMIT 2`)
	// One statement only: the plan must come from the catalog, not a run.
	if got := db.QueryCount() - before; got != 1 {
		t.Fatalf("EXPLAIN executed %d statements, want 1", got)
	}
	want := []string{"limit", "order", "aggregate", "filter", "scan patients"}
	if len(lines) != len(want) {
		t.Fatalf("plan has %d lines, want %d:\n%s", len(lines), len(want), strings.Join(lines, "\n"))
	}
	for i, w := range want {
		if !strings.Contains(lines[i], w) {
			t.Errorf("line %d = %q, want it to mention %q", i, lines[i], w)
		}
	}
	if !strings.Contains(lines[len(lines)-1], "(rows=5)") {
		t.Errorf("scan line %q should carry the catalog row count", lines[len(lines)-1])
	}
	if strings.Contains(lines[0], "rows_in=") {
		t.Errorf("plain EXPLAIN should not carry measured stats: %q", lines[0])
	}
}

// TestExplainAnalyzeAggregateOverJoin is the acceptance check: the measured
// tree of an aggregate-over-join query must carry populated per-operator
// rows, and each node's rows-out must match what executing the query
// produces at that stage.
func TestExplainAnalyzeAggregateOverJoin(t *testing.T) {
	db := explainDB(t)
	sql := `SELECT p.hospital, avg(s.mmse) AS m, count(*) AS n FROM patients p JOIN scores s ON p.id = s.id WHERE p.age > 60 GROUP BY p.hospital ORDER BY m DESC`

	// Ground truth from executing the query directly.
	direct, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}

	res, qs, err := db.QueryWithStats("EXPLAIN ANALYZE " + sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() == 0 {
		t.Fatal("empty EXPLAIN ANALYZE result")
	}
	root := qs.Root
	if root == nil {
		t.Fatal("EXPLAIN ANALYZE left no plan tree on QueryStats")
	}

	byOp := map[string][]*PlanNode{}
	root.Walk(func(n *PlanNode) { byOp[n.Op] = append(byOp[n.Op], n) })
	for _, op := range []string{"scan", "join", "filter", "aggregate", "order"} {
		if len(byOp[op]) == 0 {
			t.Fatalf("plan tree is missing a %s node:\n%s", op, root)
		}
	}

	// rows-out of the root must equal the executed result.
	if int(root.RowsOut) != direct.NumRows() {
		t.Errorf("root rows_out = %d, executed query returned %d rows", root.RowsOut, direct.NumRows())
	}
	// order preserves aggregate's row count.
	if agg := byOp["aggregate"][0]; int(agg.RowsOut) != direct.NumRows() {
		t.Errorf("aggregate rows_out = %d, want %d", agg.RowsOut, direct.NumRows())
	}
	// The join of 5x5 rows on id matches 4 pairs.
	if j := byOp["join"][0]; j.RowsOut != 4 {
		t.Errorf("join rows_out = %d, want 4", j.RowsOut)
	}
	// The planner pushes the single-table WHERE below the join: the filter
	// node sits above the patients scan and sees all 5 rows (all ages > 60).
	f := byOp["filter"][0]
	if !strings.Contains(f.Detail, "pushed") {
		t.Errorf("filter detail = %q, want a pushed-down filter", f.Detail)
	}
	if f.RowsIn != 5 || f.RowsOut != 5 {
		t.Errorf("filter rows in/out = %d/%d, want 5/5", f.RowsIn, f.RowsOut)
	}
	if len(f.Children) != 1 || f.Children[0].Op != "scan" {
		t.Errorf("pushed filter should sit directly above a scan, got:\n%s", root)
	}
	for _, sc := range byOp["scan"] {
		if sc.RowsOut != 5 {
			t.Errorf("scan %s rows_out = %d, want 5", sc.Detail, sc.RowsOut)
		}
		if sc.Bytes == 0 {
			t.Errorf("scan %s bytes = 0, want > 0", sc.Detail)
		}
	}
	// Timings populated: the sum over nodes must be positive, and the
	// stats bracket must be rendered.
	var nanos int64
	root.Walk(func(n *PlanNode) { nanos += n.Nanos })
	if nanos <= 0 {
		t.Error("no node recorded wall time")
	}
	if line := res.Col(0).StringAt(0); !strings.Contains(line, "rows_out=") || !strings.Contains(line, "time=") {
		t.Errorf("rendered plan line missing measured stats: %q", line)
	}
}

// explainMergeDB builds a two-part merge table "cohort" (2 rows per part).
func explainMergeDB() *DB {
	mdb := NewDB()
	schema := Schema{{Name: "hospital", Type: String}, {Name: "age", Type: Float64}}
	for _, part := range []string{"h1", "h2"} {
		pdb := NewDB()
		pt := NewTable(schema)
		_ = pt.AppendRow(part, 70.0)
		_ = pt.AppendRow(part, 80.0)
		pdb.RegisterTable("cohort", pt)
		m := mdb.Merge("cohort")
		if m == nil {
			m = &MergeTable{Schema: schema, TableName: "cohort"}
			mdb.RegisterMerge("cohort", m)
		}
		m.Parts = append(m.Parts, &LocalPart{Name: part, DB: pdb})
	}
	return mdb
}

func TestExplainAnalyzeMergePushdown(t *testing.T) {
	mdb := explainMergeDB()

	_, qs, err := mdb.QueryWithStats(`EXPLAIN ANALYZE SELECT avg(age) AS m FROM cohort`)
	if err != nil {
		t.Fatal(err)
	}
	byOp := map[string][]*PlanNode{}
	qs.Root.Walk(func(n *PlanNode) { byOp[n.Op] = append(byOp[n.Op], n) })
	if len(byOp["merge"]) != 1 || !strings.Contains(byOp["merge"][0].Detail, "pushdown") {
		t.Fatalf("want one pushdown merge node, got:\n%s", qs.Root)
	}
	if len(byOp["part"]) != 2 {
		t.Fatalf("want 2 part nodes, got %d", len(byOp["part"]))
	}
	for _, p := range byOp["part"] {
		// Partial aggregates: exactly one partial row ships per part.
		if p.RowsOut != 1 {
			t.Errorf("part %s shipped %d rows, want 1 partial row", p.Detail, p.RowsOut)
		}
	}
	if qs.RowsOut != 1 {
		t.Errorf("statement rows_out = %d, want 1", qs.RowsOut)
	}
	if qs.OpNanos[obs.OpMerge] <= 0 {
		t.Error("MergeNanos not recorded")
	}

	// Above its merge node a pushdown runs the plain statement's own
	// stages, as they run above the scan of the pooled table.
	pooled := NewDB()
	pt := NewTable(Schema{{Name: "hospital", Type: String}, {Name: "age", Type: Float64}})
	for _, part := range []string{"h1", "h2"} {
		_ = pt.AppendRow(part, 70.0)
		_ = pt.AppendRow(part, 80.0)
	}
	pooled.RegisterTable("cohort", pt)
	stagesAbove := func(db *DB, sql, leaf string) []string {
		t.Helper()
		_, qs, err := db.QueryWithStats(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var out []string
		for n := qs.Root; n.Op != leaf; n = n.Children[0] {
			out = append(out, n.Op+" "+n.Detail)
		}
		return out
	}
	for _, sql := range []string{
		`SELECT avg(age) AS m FROM cohort`,
		`SELECT hospital, avg(age) AS m FROM cohort GROUP BY hospital HAVING count(*) > 1 ORDER BY m LIMIT 1`,
	} {
		for _, explain := range []string{"EXPLAIN ", "EXPLAIN ANALYZE "} {
			got, want := stagesAbove(mdb, explain+sql, "merge"), stagesAbove(pooled, explain+sql, "scan")
			if strings.Join(got, "|") != strings.Join(want, "|") {
				t.Errorf("%s%s:\n  above merge %q\n  above scan  %q", explain, sql, got, want)
			}
		}
	}
}

func TestExplainErrors(t *testing.T) {
	db := explainDB(t)
	if _, err := db.Query(`EXPLAIN EXPLAIN SELECT * FROM patients`); err == nil {
		t.Error("nested EXPLAIN should fail")
	}
	if _, err := db.Query(`EXPLAIN INSERT INTO patients VALUES (9, 'h9', 50)`); err == nil {
		t.Error("EXPLAIN over DML should fail")
	}
	if _, err := db.Query(`EXPLAIN SELECT * FROM nope`); err == nil {
		t.Error("EXPLAIN over unknown table should fail")
	}
}

func TestSlowLogCapturesOverThreshold(t *testing.T) {
	db := explainDB(t)
	log := obs.NewSlowLog(2, 0)
	log.SetThreshold(1) // 1ns: everything is slow
	old := obs.DefaultSlowLog
	obs.DefaultSlowLog = log
	defer func() { obs.DefaultSlowLog = old }()

	for _, sql := range []string{
		`SELECT count(*) AS n FROM patients`,
		`SELECT avg(age) AS m FROM patients`,
		`SELECT max(age) AS x FROM patients`,
	} {
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	entries := log.Entries()
	if len(entries) != 2 {
		t.Fatalf("ring kept %d entries, want capacity 2", len(entries))
	}
	// Newest first.
	if !strings.Contains(entries[0].SQL, "max(age)") {
		t.Errorf("newest entry = %q, want the max(age) query", entries[0].SQL)
	}
	if entries[0].RowsScanned != 5 || entries[0].RowsOut != 1 {
		t.Errorf("entry rows = %d/%d, want 5/1", entries[0].RowsScanned, entries[0].RowsOut)
	}
	if len(entries[0].Plan) == 0 {
		t.Error("slow entry has no captured plan")
	}

	// Above-threshold only: with a huge threshold nothing is captured.
	log.SetThreshold(time.Hour)
	if _, err := db.Query(`SELECT count(*) AS n FROM patients`); err != nil {
		t.Fatal(err)
	}
	if got := len(log.Entries()); got != 2 {
		t.Errorf("fast query was captured (now %d entries)", got)
	}
}

// TestTopKOperator pins the bounded top-k path for ORDER BY … LIMIT:
// both plain EXPLAIN (predicted from catalog row counts) and EXPLAIN
// ANALYZE render a single `topk` node instead of order+limit, and the
// rows it returns are exactly the corresponding prefix of the full sort.
func TestTopKOperator(t *testing.T) {
	db := explainDB(t)
	lines := planLines(t, db, `EXPLAIN SELECT id, age FROM patients ORDER BY age DESC LIMIT 2`)
	if !strings.Contains(lines[0], "topk age DESC limit 2") {
		t.Errorf("plain EXPLAIN root = %q, want a topk node", lines[0])
	}
	for _, l := range lines {
		if strings.Contains(l, "order ") && !strings.Contains(l, "topk") {
			t.Errorf("plain EXPLAIN still has a separate order node: %q", l)
		}
	}
	lines = planLines(t, db, `EXPLAIN ANALYZE SELECT id, age FROM patients ORDER BY age DESC LIMIT 2`)
	if !strings.Contains(lines[0], "topk") || !strings.Contains(lines[0], "rows_out=2") {
		t.Errorf("EXPLAIN ANALYZE root = %q, want topk with rows_out=2", lines[0])
	}

	for _, q := range []struct {
		limited, full string
		offset, k     int
	}{
		{`SELECT id, age FROM patients ORDER BY age DESC, id LIMIT 2`,
			`SELECT id, age FROM patients ORDER BY age DESC, id`, 0, 2},
		{`SELECT id, age FROM patients WHERE age > 60 ORDER BY age, id LIMIT 2 OFFSET 1`,
			`SELECT id, age FROM patients WHERE age > 60 ORDER BY age, id`, 1, 2},
	} {
		got, err := db.Query(q.limited)
		if err != nil {
			t.Fatalf("%s: %v", q.limited, err)
		}
		ref, err := db.Query(q.full)
		if err != nil {
			t.Fatalf("%s: %v", q.full, err)
		}
		if got.NumRows() != q.k {
			t.Fatalf("%s: returned %d rows, want %d", q.limited, got.NumRows(), q.k)
		}
		for i := 0; i < got.NumRows(); i++ {
			for j := 0; j < got.NumCols(); j++ {
				g, r := got.Col(j).Value(i), ref.Col(j).Value(i+q.offset)
				if fmt.Sprint(g) != fmt.Sprint(r) {
					t.Errorf("%s: row %d col %d = %v, full-sort prefix has %v", q.limited, i, j, g, r)
				}
			}
		}
	}
}

// TestExplainMatchesExplainAnalyze pins that the predicted and the executed
// plan cannot drift: for every statement shape this file uses, plain
// EXPLAIN and EXPLAIN ANALYZE must list the same operators in the same
// order with the same [fused] marks. Both come from one stage list.
func TestExplainMatchesExplainAnalyze(t *testing.T) {
	nodeList := func(db *DB, sql string) []string {
		t.Helper()
		_, qs, err := db.QueryWithStats(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var ops []string
		qs.Root.Walk(func(n *PlanNode) {
			op := n.Op
			if n.Fused {
				op += " [fused]"
			}
			ops = append(ops, op)
		})
		return ops
	}
	local, merged := explainDB(t), explainMergeDB()
	for _, c := range []struct {
		db  *DB
		sql string
	}{
		{local, `SELECT hospital, avg(age) AS m FROM patients WHERE age > 60 GROUP BY hospital ORDER BY m LIMIT 2`},
		{local, `SELECT p.hospital, avg(s.mmse) AS m, count(*) AS n FROM patients p JOIN scores s ON p.id = s.id WHERE p.age > 60 GROUP BY p.hospital ORDER BY m DESC`},
		{merged, `SELECT avg(age) AS m FROM cohort`},
		{merged, `SELECT hospital, avg(age) AS m FROM cohort GROUP BY hospital HAVING count(*) > 1 ORDER BY m LIMIT 1`},
		{local, `SELECT * FROM patients`},
		{local, `SELECT * FROM patients WHERE age > 60`},
		{local, `SELECT count(*) AS n FROM patients`},
		{local, `SELECT max(age) AS x FROM patients`},
		{local, `SELECT id, age FROM patients ORDER BY age DESC LIMIT 2`},
		{local, `SELECT id, age FROM patients ORDER BY age DESC, id`},
		{local, `SELECT id, age FROM patients WHERE age > 60 ORDER BY age, id`},
		{local, `SELECT id, age FROM patients WHERE age > 60 ORDER BY age, id LIMIT 2 OFFSET 1`},
		{local, `SELECT id, age + 1 AS a FROM patients WHERE age > 60`},
	} {
		plain, analyzed := nodeList(c.db, "EXPLAIN "+c.sql), nodeList(c.db, "EXPLAIN ANALYZE "+c.sql)
		if strings.Join(plain, "|") != strings.Join(analyzed, "|") {
			t.Errorf("%s:\n  EXPLAIN         %v\n  EXPLAIN ANALYZE %v", c.sql, plain, analyzed)
		}
	}
}

// TestExplainJoinScansReadColumns: the scans under an aggregate over a join
// carry only the columns the statement names, in EXPLAIN and in EXPLAIN
// ANALYZE alike. The tables have the shapes of a hospital's 18-column data
// table and its 3-column visits table; the statement reads 2 of each.
func TestExplainJoinScansReadColumns(t *testing.T) {
	db := NewDB()
	schema := Schema{{Name: "row_id", Type: Int64}, {Name: "dataset", Type: String}, {Name: "alzheimerbroadcategory", Type: String}}
	for len(schema) < 18 {
		schema = append(schema, ColumnDef{Name: fmt.Sprintf("m%d", len(schema)), Type: Float64})
	}
	data := NewTable(schema)
	visits := NewTable(Schema{{Name: "row_id", Type: Int64}, {Name: "bucket", Type: Int64}, {Name: "score", Type: Float64}})
	for i := 0; i < 20; i++ {
		row := []any{int64(i), "edsd", []string{"AD", "CN", "MCI"}[i%3]}
		for len(row) < 18 {
			row = append(row, float64(i*len(row)))
		}
		if err := data.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
		if err := visits.AppendRow(int64(i), int64(i%4), float64(i)/20); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterTable("data", data)
	db.RegisterTable("visits", visits)
	sql := `SELECT d.alzheimerbroadcategory, count(*) AS n, avg(v.score) AS m FROM data d JOIN visits v ON d.row_id = v.row_id` +
		` WHERE v.score >= 0.1 GROUP BY d.alzheimerbroadcategory`
	for _, explain := range []string{"EXPLAIN ", "EXPLAIN ANALYZE "} {
		_, qs, err := db.QueryWithStats(explain + sql)
		if err != nil {
			t.Fatal(err)
		}
		cols := map[string]int64{}
		qs.Root.Walk(func(n *PlanNode) {
			if n.Op == "scan" {
				cols[n.Detail] = n.Batches
			}
		})
		if len(cols) != 2 || cols["data"] != 2 || cols["visits"] != 2 {
			t.Errorf("%s: scan columns %v, want 2 per side", explain, cols)
		}
	}
}

// TestFusedFilterWallTimeBookedOnce: a fused filter→project runs in one
// morsel loop, whose wall time must be split between the two operators —
// booking it to both inflated mip_engine_operator_nanos_total past the
// statement's own wall time. How the wall time is split by busy share is
// pinned with fixed inputs (TestBusyShareSplitsWallOnce): wall-clock
// fractions compared across degrees flake on a shared host.
func TestFusedFilterWallTimeBookedOnce(t *testing.T) {
	db := NewDB(WithParallelism(4))
	tab := NewTable(Schema{{Name: "id", Type: Int64}, {Name: "age", Type: Float64}})
	for i := 0; i < 50_000; i++ {
		if err := tab.AppendRow(int64(i), float64(i%97)); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterTable("big", tab)
	start := time.Now()
	_, qs, err := db.QueryWithStats(`SELECT id, sqrt(age) * 2 AS a FROM big WHERE age > 10`)
	wall := time.Since(start).Nanoseconds()
	if err != nil {
		t.Fatal(err)
	}
	var filter, project *PlanNode
	qs.Root.Walk(func(n *PlanNode) {
		switch n.Op {
		case "filter":
			filter = n
		case "project":
			project = n
		}
	})
	if filter == nil || project == nil || !filter.Fused || !project.Fused {
		t.Fatalf("want a fused filter→project, got:\n%s", qs.Root)
	}
	if qs.OpNanos[obs.OpFilter] <= 0 || qs.OpNanos[obs.OpProject] <= 0 {
		t.Errorf("FilterNanos = %d, ProjectNanos = %d, want both > 0", qs.OpNanos[obs.OpFilter], qs.OpNanos[obs.OpProject])
	}
	if qs.OpNanos[obs.OpFilter] != filter.Nanos || qs.OpNanos[obs.OpProject] != project.Nanos {
		t.Errorf("stats (%d, %d) disagree with plan nodes (%d, %d)", qs.OpNanos[obs.OpFilter], qs.OpNanos[obs.OpProject], filter.Nanos, project.Nanos)
	}
	if sum := qs.OpNanos[obs.OpFilter] + qs.OpNanos[obs.OpProject]; sum > wall {
		t.Errorf("FilterNanos + ProjectNanos = %d exceeds the statement's wall time %d", sum, wall)
	}

	// At degree 1 the filter's share is what its select and gather take
	// over the morsels, which can be timed from here.
	where, err := ParseExpr(`age > 10`)
	if err != nil {
		t.Fatal(err)
	}
	ref := int64(math.MaxInt64)
	for range 5 {
		t0 := time.Now()
		for lo := 0; lo < tab.NumRows(); lo += DefaultMorselSize {
			part := tab.Slice(lo, min(lo+DefaultMorselSize, tab.NumRows()))
			sel, err := FilterSel(where, part)
			if err != nil {
				t.Fatal(err)
			}
			part.Gather(sel)
		}
		ref = min(ref, time.Since(t0).Nanoseconds())
	}
	serial := NewDB(WithParallelism(1))
	serial.RegisterTable("big", tab)
	best, filterNs := int64(math.MaxInt64), int64(0)
	for range 5 { // the quietest run: scheduling noise only ever adds time
		_, qs, err := serial.QueryWithStats(`SELECT id, sqrt(age) * 2 AS a FROM big WHERE age > 10`)
		if err != nil {
			t.Fatal(err)
		}
		if loop := qs.OpNanos[obs.OpFilter] + qs.OpNanos[obs.OpProject]; loop < best {
			best, filterNs = loop, qs.OpNanos[obs.OpFilter]
		}
	}
	if filterNs < ref/4 || filterNs > ref*4 {
		t.Errorf("serial FilterNanos %d is not within 4x of the measured select+gather time %d ns", filterNs, ref)
	}
}

// TestBusyShareSplitsWallOnce: a fused loop's wall time goes to the filter
// in proportion to its share of the workers' busy time, at any degree, and
// the filter's and its host's shares add up to the wall time once.
func TestBusyShareSplitsWallOnce(t *testing.T) {
	for _, c := range []struct{ wall, part, busy, want int64 }{
		{wall: 1000, part: 250, busy: 1000, want: 250},  // one worker, busy the whole loop
		{wall: 1000, part: 1000, busy: 4000, want: 250}, // four workers: the same fraction
		{wall: 1000, part: 600, busy: 3000, want: 200},  // three workers, unevenly loaded
		{wall: 800, part: 0, busy: 1600, want: 0},       // a filter that took no time
		{wall: 500, part: 40, busy: 0, want: 40},        // no busy time recorded
	} {
		got := busyShare(c.wall, c.part, c.busy)
		if got != c.want {
			t.Errorf("busyShare(%d, %d, %d) = %d, want %d", c.wall, c.part, c.busy, got, c.want)
		}
		if c.busy > 0 {
			if host := busyShare(c.wall, c.busy-c.part, c.busy); got+host != c.wall {
				t.Errorf("wall %d split into filter %d + host %d", c.wall, got, host)
			}
		}
	}
}

// TestNoWhereProjectionIsZeroCopy: without a WHERE a projection evaluates
// whole columns, so column references cost no memory — such statements must
// pass under a per-query limit far smaller than the table, sorted or not.
func TestNoWhereProjectionIsZeroCopy(t *testing.T) {
	const rows = 200_000
	ids, xs := make([]int64, rows), make([]float64, rows)
	for i := range ids {
		ids[i], xs[i] = int64(i), float64((i*7919)%rows)
	}
	tab, err := NewTableFromVectors(
		Schema{{Name: "id", Type: Int64}, {Name: "x", Type: Float64}, {Name: "y", Type: Float64}},
		[]*Vector{NewInt64Vector(ids, nil), NewFloat64Vector(xs, nil), NewFloat64Vector(xs, nil)})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		db := NewDB(WithParallelism(par), WithQueryMemLimit(tab.ByteSize()/4))
		db.RegisterTable("big", tab)
		for _, sql := range []string{`SELECT id, x FROM big`, `SELECT * FROM big ORDER BY x`, `SELECT id, x FROM big ORDER BY y`} {
			res, qs, err := db.QueryWithStats(sql)
			if err != nil {
				t.Fatalf("par=%d: %s: %v", par, sql, err)
			}
			if res.NumRows() != rows || qs.MemPeakBytes != 0 {
				t.Errorf("par=%d: %s: %d rows, peak %d bytes; want %d rows and no charge", par, sql, res.NumRows(), qs.MemPeakBytes, rows)
			}
		}
		res, err := db.Query(`SELECT id, x FROM big`)
		if err != nil {
			t.Fatal(err)
		}
		if &res.Col(1).Float64s()[0] != &xs[0] {
			t.Errorf("par=%d: SELECT id, x copied column x", par)
		}
	}
}
