package engine

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// spillDB builds a DB whose statements run under a deliberately tiny soft
// memory budget with spilling enabled, so every grouped aggregate (and,
// with joins, every eligible hash join) sheds state to disk.
func spillDB(t *testing.T, budget int64, degree, morsel int) (*DB, string) {
	t.Helper()
	dir := t.TempDir()
	db := NewDB(WithParallelism(degree), WithMorselSize(morsel),
		WithQueryMemLimit(budget), WithSpillDir(dir))
	if err := buildParallelFixture(db, 1500); err != nil {
		t.Fatal(err)
	}
	return db, dir
}

// assertNoSpillResidue fails if any mipspill-* session directory survived
// in the spill base dir after the statements finished.
func assertNoSpillResidue(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read spill dir: %v", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "mipspill-") {
			t.Fatalf("spill residue left behind: %s", e.Name())
		}
	}
}

// TestSpillSerialParallelEquivalence runs the whole equivalence corpus
// with a budget of a few KB — far below any grouped aggregate's working
// set — and requires bit-identical results against an unbudgeted serial
// engine at parallelism 1, 2, and NumCPU.
func TestSpillSerialParallelEquivalence(t *testing.T) {
	const morsel = 128
	ref := NewDB(WithParallelism(1), WithMorselSize(morsel))
	if err := buildParallelFixture(ref, 1500); err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{1, 2, runtime.NumCPU()} {
		db, dir := spillDB(t, 4096, d, morsel)
		for _, sql := range parallelCorpus {
			want, err := ref.Query(sql)
			if err != nil {
				t.Fatalf("reference: %s: %v", sql, err)
			}
			got, err := db.Query(sql)
			if err != nil {
				t.Fatalf("spill par=%d: %s: %v", d, sql, err)
			}
			tablesIdentical(t, sql, want, got, "in-memory", fmt.Sprintf("spill par=%d", d))
		}
		assertNoSpillResidue(t, dir)
	}
}

// TestSpillReportsStats checks that a budget-crossing grouped aggregate
// actually spilled: SpillBytes/SpillPartitions on QueryStats, spill_bytes
// in the attribution map, and the [spill=...] bracket in EXPLAIN ANALYZE.
func TestSpillReportsStats(t *testing.T) {
	db, dir := spillDB(t, 4096, 2, 128)
	sql := `SELECT cat, count(*) AS n, sum(x) AS s, avg(y) AS m FROM t GROUP BY cat ORDER BY cat`
	_, qs, err := db.QueryWithStats(sql)
	if err != nil {
		t.Fatal(err)
	}
	if qs.SpillBytes <= 0 {
		t.Fatalf("SpillBytes = %d, want > 0", qs.SpillBytes)
	}
	if qs.SpillPartitions <= 0 {
		t.Fatalf("SpillPartitions = %d, want > 0", qs.SpillPartitions)
	}
	if got := qs.Attrs(); got["spill_bytes"] == "" {
		t.Fatalf("attr map missing spill_bytes: %v", got)
	}
	if qs.Verdict != VerdictCompleted {
		t.Fatalf("verdict = %q, want %q (soft budget must not kill the query)", qs.Verdict, VerdictCompleted)
	}
	var spillNode *PlanNode
	qs.Root.Walk(func(n *PlanNode) {
		if n.SpillParts > 0 {
			spillNode = n
		}
	})
	if spillNode == nil {
		t.Fatalf("no plan node carries spill stats:\n%s", qs.Root)
	}
	if spillNode.Op != "aggregate" {
		t.Fatalf("spill stats on %q node, want aggregate", spillNode.Op)
	}
	rendered := strings.Join(qs.Root.Render(true), "\n")
	if !strings.Contains(rendered, "[spill=") {
		t.Fatalf("EXPLAIN ANALYZE missing [spill=...] bracket:\n%s", rendered)
	}
	assertNoSpillResidue(t, dir)
}

// midInputBudget lies between the budget a grouped aggregate over cat
// crosses within its first morsels (4096) and one it never crosses: over
// spillDB's fixture it is crossed partway through the input.
const midInputBudget = 8192

// TestSpillMidInputCrossing runs grouped aggregates whose budget is crossed
// partway through their input: the partials built before the crossing
// stay resident, only the later morsels spill, and the combine folds both.
// Over cat every group has rows on both sides of the crossing; over id
// (one morsel per group, partitions too small to re-split) the spilled
// bytes count the spilled rows exactly. Results must be bit-identical to
// the unbudgeted serial engine at parallelism 1, 2 and NumCPU, and the
// aggregate and fused-filter plan nodes must count the morsels and rows of
// the unbudgeted run: no morsel is evaluated twice. At parallelism 1 the
// crossing point is deterministic, so the statement must also spill, and
// strictly less than under the 4096-byte budget, which spills from its
// first morsels on.
func TestSpillMidInputCrossing(t *testing.T) {
	const morsel = 128
	ref := NewDB(WithParallelism(1), WithMorselSize(morsel))
	if err := buildParallelFixture(ref, 1500); err != nil {
		t.Fatal(err)
	}
	nodes := func(qs QueryStats) (agg, filter *PlanNode) {
		qs.Root.Walk(func(n *PlanNode) {
			switch n.Op {
			case "aggregate":
				agg = n
			case "filter":
				filter = n
			}
		})
		return agg, filter
	}
	for _, c := range []struct {
		budget int64
		sql    string
	}{
		{midInputBudget, `SELECT cat, count(*) AS n, sum(x) AS s, avg(y) AS m FROM t GROUP BY cat`},
		{midInputBudget, `SELECT cat, count(*) AS n, sum(x) AS s, avg(y) AS m FROM t WHERE flag GROUP BY cat HAVING count(*) > 1`},
		{32768, `SELECT id, count(*) AS n FROM t GROUP BY id`},
		{32768, `SELECT id, count(*) AS n, sum(x) AS s, avg(y) AS m FROM t WHERE flag GROUP BY id HAVING count(*) > 0`},
	} {
		sql := c.sql
		want, refStats, err := ref.QueryWithStats(sql)
		if err != nil {
			t.Fatalf("reference: %s: %v", sql, err)
		}
		refAgg, refFilter := nodes(refStats)
		for _, d := range []int{1, 2, runtime.NumCPU()} {
			label := fmt.Sprintf("mid-input spill par=%d", d)
			db, dir := spillDB(t, c.budget, d, morsel)
			got, qs, err := db.QueryWithStats(sql)
			if err != nil {
				t.Fatalf("%s: %s: %v", label, sql, err)
			}
			tablesIdentical(t, sql, want, got, "in-memory", label)
			agg, filter := nodes(qs)
			if agg.Morsels != refAgg.Morsels || agg.RowsOut != refAgg.RowsOut {
				t.Fatalf("%s: %s: aggregate morsels/rows out %d/%d, unbudgeted %d/%d",
					label, sql, agg.Morsels, agg.RowsOut, refAgg.Morsels, refAgg.RowsOut)
			}
			if (filter == nil) != (refFilter == nil) {
				t.Fatalf("%s: %s: filter node present %v, unbudgeted %v", label, sql, filter != nil, refFilter != nil)
			}
			if filter != nil && (filter.Morsels != refFilter.Morsels || filter.RowsOut != refFilter.RowsOut) {
				t.Fatalf("%s: %s: filter morsels/rows out %d/%d, unbudgeted %d/%d",
					label, sql, filter.Morsels, filter.RowsOut, refFilter.Morsels, refFilter.RowsOut)
			}
			assertNoSpillResidue(t, dir)
			if d != 1 {
				continue
			}
			early, _ := spillDB(t, 4096, d, morsel)
			_, earlyStats, err := early.QueryWithStats(sql)
			if err != nil {
				t.Fatalf("4096-byte budget: %s: %v", sql, err)
			}
			if qs.SpillBytes <= 0 || qs.SpillBytes >= earlyStats.SpillBytes {
				t.Fatalf("%s: %s: SpillBytes = %d, want in (0, %d) — the 4096-byte budget's spill",
					label, sql, qs.SpillBytes, earlyStats.SpillBytes)
			}
		}
	}
}

// spillJoinCorpus stresses the join of several passes and the streamed
// join→aggregate path beyond the shared corpus: ON residuals, WHERE
// predicates spanning both sides (unpushable), HAVING, DISTINCT
// aggregates over the merged stream, LEFT JOIN NULL group keys, and a
// three-way join (reordered plans carry hidden rowid columns through the
// spill files).
var spillJoinCorpus = []string{
	`SELECT a.id, a.x, b.score FROM t a JOIN u b ON a.id = b.id AND b.score > 0.2 ORDER BY a.id, b.score`,
	`SELECT a.id, b.score FROM t a LEFT JOIN u b ON a.id = b.id AND b.score > 0.5 ORDER BY a.id, b.score`,
	`SELECT b.site, count(*) AS n, sum(a.x) AS s FROM t a JOIN u b ON a.id = b.id WHERE a.x > b.score GROUP BY b.site HAVING count(*) > 1 ORDER BY b.site`,
	`SELECT b.site, avg(a.y) AS m FROM t a LEFT JOIN u b ON a.id = b.id GROUP BY b.site ORDER BY b.site LIMIT 3`,
	`SELECT a.cat, count(DISTINCT b.id) AS n FROM t a JOIN u b ON a.id = b.id GROUP BY a.cat ORDER BY a.cat`,
	`SELECT a.id, b.score, c.site FROM t a JOIN u b ON a.id = b.id JOIN u c ON b.id = c.id WHERE a.flag ORDER BY a.id, b.score, c.site`,
}

// TestSpillJoinEquivalence requires the join of several passes (and the streamed
// join→aggregate) to be bit-identical to the unbudgeted in-memory join at
// parallelism 1, 2, and NumCPU.
func TestSpillJoinEquivalence(t *testing.T) {
	const morsel = 128
	ref := NewDB(WithParallelism(1), WithMorselSize(morsel))
	if err := buildParallelFixture(ref, 1500); err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{1, 2, runtime.NumCPU()} {
		db, dir := spillDB(t, 4096, d, morsel)
		for _, sql := range spillJoinCorpus {
			want, err := ref.Query(sql)
			if err != nil {
				t.Fatalf("reference: %s: %v", sql, err)
			}
			got, err := db.Query(sql)
			if err != nil {
				t.Fatalf("spill par=%d: %s: %v", d, sql, err)
			}
			tablesIdentical(t, sql, want, got, "in-memory", fmt.Sprintf("spill par=%d", d))
		}
		assertNoSpillResidue(t, dir)
	}
}

// joinOverflow sums the statement's join nodes' SpillParts: the build
// partitions joined in a pass after the first.
func joinOverflow(qs QueryStats) (parts int64) {
	qs.Root.Walk(func(n *PlanNode) {
		if n.Op == "join" {
			parts += n.SpillParts
		}
	})
	return parts
}

// TestSpillJoinReportsStats checks that a budget-crossing join records
// spill stats on its plan node, both standalone and under the streamed
// join→aggregate path (where the aggregate node must spill too). Under
// 4 KiB the kept pairs outgrow half the budget, so the standalone join
// writes pair runs.
func TestSpillJoinReportsStats(t *testing.T) {
	db, dir := spillDB(t, 4096, 2, 128)

	_, qs, err := db.QueryWithStats(`SELECT a.id, b.score FROM t a JOIN u b ON a.id = b.id ORDER BY a.id, b.score`)
	if err != nil {
		t.Fatal(err)
	}
	var join *PlanNode
	qs.Root.Walk(func(n *PlanNode) {
		if n.Op == "join" {
			join = n
		}
	})
	if join == nil || join.SpillParts <= 0 {
		t.Fatalf("standalone join joined no partition in a later pass:\n%s", qs.Root)
	}
	if join.SpillBytes <= 0 || qs.SpillBytes < join.SpillBytes {
		t.Fatalf("join SpillBytes = %d (statement %d), want pair runs written", join.SpillBytes, qs.SpillBytes)
	}

	_, qs, err = db.QueryWithStats(`SELECT b.site, count(*) AS n, sum(a.x) AS s FROM t a JOIN u b ON a.id = b.id WHERE a.x > b.score GROUP BY b.site ORDER BY b.site`)
	if err != nil {
		t.Fatal(err)
	}
	var joinNode, aggNode *PlanNode
	qs.Root.Walk(func(n *PlanNode) {
		switch n.Op {
		case "join":
			joinNode = n
		case "aggregate":
			aggNode = n
		}
	})
	if joinNode == nil || joinNode.SpillParts <= 0 {
		t.Fatalf("join node missing spill stats:\n%s", qs.Root)
	}
	if aggNode == nil || aggNode.SpillParts <= 0 {
		t.Fatalf("aggregate node missing spill stats (stream path not taken?):\n%s", qs.Root)
	}
	if !aggNode.Fused {
		t.Fatalf("streamed join→aggregate should mark the aggregate fused:\n%s", qs.Root)
	}
	rendered := strings.Join(qs.Root.Render(true), "\n")
	if !strings.Contains(rendered, "[spill=") {
		t.Fatalf("EXPLAIN ANALYZE missing [spill=...] bracket:\n%s", rendered)
	}
	assertNoSpillResidue(t, dir)
}

// midBuildBudget lies between the budget a hash join over spillDB's
// fixture crosses before admitting its first build partitions (4096) and
// one that holds them all: some partitions join in the first pass, the
// rest in later ones.
const midBuildBudget = 24 << 10

// TestSpillJoinMidBuildCrossing runs joins whose budget is crossed while
// the build partitions are admitted: the partitions admitted before the
// crossing are joined in the first pass, the later ones in later passes,
// and the merge puts their pairs back in the in-memory join's order.
// Results must be bit-identical to the unbudgeted serial engine at
// parallelism 1, 2 and NumCPU, with no spill residue. The LEFT JOIN has
// NULL left keys, which the first pass pads, and unmatched left rows in
// first-pass and later-pass partitions alike: each must come out exactly
// once, NULL-extended. At parallelism 1 the crossing point is
// deterministic, so the join must leave some of its 16 build partitions
// to later passes but not all, fewer than under the 4096-byte budget, and
// write strictly fewer pair-run bytes than that budget's join, which
// writes some.
func TestSpillJoinMidBuildCrossing(t *testing.T) {
	const morsel = 128
	ref := NewDB(WithParallelism(1), WithMorselSize(morsel))
	if err := buildParallelFixture(ref, 1500); err != nil {
		t.Fatal(err)
	}
	joinNode := func(qs QueryStats) (join *PlanNode) {
		qs.Root.Walk(func(n *PlanNode) {
			if n.Op == "join" {
				join = n
			}
		})
		return join
	}
	leftJoin := `SELECT a.id, a.score, b.x FROM u a LEFT JOIN t b ON a.id = b.id AND b.x > 0`
	for _, sql := range []string{
		`SELECT a.id, a.x, b.score, b.site FROM t a JOIN u b ON a.id = b.id`,
		leftJoin,
		`SELECT b.site, count(*) AS n, sum(a.x) AS s FROM t a JOIN u b ON a.id = b.id GROUP BY b.site`,
	} {
		want, err := ref.Query(sql)
		if err != nil {
			t.Fatalf("reference: %s: %v", sql, err)
		}
		for _, d := range []int{1, 2, runtime.NumCPU()} {
			label := fmt.Sprintf("mid-build spill par=%d", d)
			db, dir := spillDB(t, midBuildBudget, d, morsel)
			got, qs, err := db.QueryWithStats(sql)
			if err != nil {
				t.Fatalf("%s: %s: %v", label, sql, err)
			}
			tablesIdentical(t, sql, want, got, "in-memory", label)
			assertNoSpillResidue(t, dir)
			if sql == leftJoin {
				wantNull, wantPadded := nullRows(want)
				gotNull, gotPadded := nullRows(got)
				if wantNull == 0 || wantPadded <= wantNull || gotNull != wantNull || gotPadded != wantPadded {
					t.Fatalf("%s: %s: %d NULL-key rows and %d NULL-extended, want %d and %d (> 0 and more)",
						label, sql, gotNull, gotPadded, wantNull, wantPadded)
				}
			}
			if d != 1 {
				continue
			}
			early, _ := spillDB(t, 4096, d, morsel)
			_, earlyStats, err := early.QueryWithStats(sql)
			if err != nil {
				t.Fatalf("4096-byte budget: %s: %v", sql, err)
			}
			j, ej := joinNode(qs), joinNode(earlyStats)
			if j.SpillParts <= 0 || j.SpillParts >= min(16, ej.SpillParts) {
				t.Fatalf("%s: %s: join SpillParts = %d, want in (0, %d) — some of the 16 build partitions resident, fewer spilled than under the 4096-byte budget",
					label, sql, j.SpillParts, min(16, ej.SpillParts))
			}
			if ej.SpillBytes <= 0 || j.SpillBytes >= ej.SpillBytes {
				t.Fatalf("%s: %s: join SpillBytes = %d, want below %d — the 4096-byte budget's, which writes pair runs", label, sql, j.SpillBytes, ej.SpillBytes)
			}
		}
	}
}

// nullRows counts the rows of a LEFT JOIN's answer whose first column (the
// left key) is NULL, and those whose last column (a right column) is.
func nullRows(t *Table) (nullKeys, padded int) {
	for r := 0; r < t.NumRows(); r++ {
		if t.Col(0).IsNull(r) {
			nullKeys++
		}
		if t.Col(t.NumCols() - 1).IsNull(r) {
			padded++
		}
	}
	return nullKeys, padded
}

// TestSpillJoinAggMemoryBudget is the headline acceptance check: a
// 1M-row join feeding a grouped aggregate under an 8 MB budget must
// complete via spill, report SpillBytes > 0, return bit-identical rows,
// and peak at least 4x below the unbudgeted run.
func TestSpillJoinAggMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row spill acceptance check")
	}
	const rows = 1_000_000
	build := func(db *DB) {
		l := NewTable(Schema{
			{Name: "id", Type: Int64},
			{Name: "x", Type: Float64},
			{Name: "y", Type: Float64},
		})
		r := NewTable(Schema{
			{Name: "id", Type: Int64},
			{Name: "k", Type: String},
		})
		for i := 0; i < rows; i++ {
			f := float64(i%9973) / 9973
			if err := l.AppendRow(int64(i), f*30, f); err != nil {
				t.Fatal(err)
			}
			if err := r.AppendRow(int64(i), fmt.Sprintf("site-%d", i%16)); err != nil {
				t.Fatal(err)
			}
		}
		db.RegisterTable("l", l)
		db.RegisterTable("r", r)
	}
	sql := `SELECT r.k AS k, sum(l.x) AS s, count(*) AS n FROM l JOIN r ON l.id = r.id GROUP BY r.k ORDER BY k`

	ref := NewDB()
	build(ref)
	want, refStats, err := ref.QueryWithStats(sql)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	db := NewDB(WithQueryMemLimit(8<<20), WithSpillDir(dir))
	build(db)
	got, qs, err := db.QueryWithStats(sql)
	if err != nil {
		t.Fatal(err)
	}
	tablesIdentical(t, sql, want, got, "unbudgeted", "8MB budget")
	if qs.SpillBytes <= 0 {
		t.Fatalf("SpillBytes = %d, want > 0", qs.SpillBytes)
	}
	if qs.Verdict != VerdictCompleted {
		t.Fatalf("verdict = %q, want %q", qs.Verdict, VerdictCompleted)
	}
	if qs.MemPeakBytes <= 0 || refStats.MemPeakBytes <= 0 {
		t.Fatalf("missing peaks: budgeted %d, unbudgeted %d", qs.MemPeakBytes, refStats.MemPeakBytes)
	}
	if ratio := float64(refStats.MemPeakBytes) / float64(qs.MemPeakBytes); ratio < 4 {
		t.Fatalf("peak reduction %.1fx (budgeted %d vs unbudgeted %d), want >= 4x",
			ratio, qs.MemPeakBytes, refStats.MemPeakBytes)
	}
	t.Logf("peak: unbudgeted %d, budgeted %d (%.1fx); spilled %d bytes across %d partitions",
		refStats.MemPeakBytes, qs.MemPeakBytes,
		float64(refStats.MemPeakBytes)/float64(qs.MemPeakBytes), qs.SpillBytes, qs.SpillPartitions)
	assertNoSpillResidue(t, dir)
}

// TestSpillJoinAggStaysInBudget is the shape of engine_sql's budgeted
// join+aggregate: 100 000 + 100 000 rows on unique int keys, a 3-value
// category and a float score, grouped by the category under a 2 MB budget
// behind a pushed filter that keeps every row. The filter is its input
// and costs nothing, so the budget goes to the join's index: the join
// leaves some partitions to later passes, the aggregate over its stream
// never crosses the budget and spills nothing, and the statement peaks
// within 1.25× the budget. Results are bit-identical to the unbudgeted
// serial engine at parallelism 1, 2 and NumCPU, with no spill residue.
func TestSpillJoinAggStaysInBudget(t *testing.T) {
	const rows, budget = 100_000, 2 << 20
	ids, cats := make([]int64, rows), NewVector(String)
	scores := make([]float64, rows)
	for i := range ids {
		ids[i] = int64(i)
		cats.AppendString([]string{"AD", "CN", "MCI"}[i*7%3])
		scores[i] = float64(i*7919%rows) / rows
	}
	d, err := NewTableFromVectors(Schema{{Name: "row_id", Type: Int64}, {Name: "cat", Type: String}},
		[]*Vector{NewInt64Vector(ids, nil), cats})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewTableFromVectors(Schema{{Name: "row_id", Type: Int64}, {Name: "score", Type: Float64}},
		[]*Vector{NewInt64Vector(ids, nil), NewFloat64Vector(scores, nil)})
	if err != nil {
		t.Fatal(err)
	}
	sql := `SELECT d.cat, count(*) AS n, avg(v.score) AS m FROM d JOIN v ON d.row_id = v.row_id WHERE v.score >= -0.25 GROUP BY d.cat`
	ref := NewDB(WithParallelism(1))
	ref.RegisterTable("d", d)
	ref.RegisterTable("v", v)
	want, err := ref.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, runtime.NumCPU()} {
		label := fmt.Sprintf("2 MB budget par=%d", par)
		dir := t.TempDir()
		db := NewDB(WithParallelism(par), WithQueryMemLimit(budget), WithSpillDir(dir))
		db.RegisterTable("d", d)
		db.RegisterTable("v", v)
		got, qs, err := db.QueryWithStats(sql)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		tablesIdentical(t, sql, want, got, "unbudgeted", label)
		assertNoSpillResidue(t, dir)
		var join, agg *PlanNode
		qs.Root.Walk(func(n *PlanNode) {
			switch n.Op {
			case "join":
				join = n
			case "aggregate":
				agg = n
			}
		})
		if join == nil || join.SpillParts <= 0 {
			t.Fatalf("%s: the join took one pass:\n%s", label, qs.Root)
		}
		if agg == nil || agg.SpillParts != 0 {
			t.Fatalf("%s: the aggregate spilled:\n%s", label, qs.Root)
		}
		if qs.MemPeakBytes > budget*5/4 {
			t.Fatalf("%s: peak %d bytes, over 1.25× the %d-byte budget", label, qs.MemPeakBytes, budget)
		}
		t.Logf("%s: peak %d bytes, join passes left %d partitions, wrote %d bytes", label, qs.MemPeakBytes, join.SpillParts, qs.SpillBytes)
	}
}

// TestSpillKeepsHardLimitSemanticsWithoutDir checks that a budget without
// a spill dir still cancels with ErrQueryMemLimit (the pre-spill contract).
func TestSpillKeepsHardLimitSemanticsWithoutDir(t *testing.T) {
	db := NewDB(WithParallelism(2), WithMorselSize(128), WithQueryMemLimit(4096))
	if err := buildParallelFixture(db, 1500); err != nil {
		t.Fatal(err)
	}
	_, _, err := db.QueryWithStats(`SELECT cat, count(*) AS n FROM t GROUP BY cat`)
	if err == nil {
		t.Fatal("tiny hard limit without spill dir: want ErrQueryMemLimit, got nil")
	}
}

// TestSpillCleanupOnError drives statements that spill during the
// aggregate and then fail in HAVING evaluation — one spilling from its
// first morsels, one crossing its budget mid-input with some partials
// resident — and the session spill directory must still be removed.
func TestSpillCleanupOnError(t *testing.T) {
	for _, c := range []struct {
		budget int64
		sql    string
	}{
		{4096, `SELECT cat, count(*) AS n FROM t GROUP BY cat HAVING upper(n) > 'x'`},
		{midInputBudget, `SELECT cat, count(*) AS n, sum(x) AS s, avg(y) AS m FROM t GROUP BY cat HAVING upper(n) > 'x'`},
	} {
		db, dir := spillDB(t, c.budget, 2, 128)
		_, err := db.Query(c.sql)
		if err == nil {
			t.Fatal("want HAVING type error, got nil")
		}
		assertNoSpillResidue(t, dir)
	}
}

// TestSpillCleanupOnCancel cancels spilling statements mid-flight — one
// spilling from its first morsels, one crossing its budget mid-input —
// and checks no run files outlive the query.
func TestSpillCleanupOnCancel(t *testing.T) {
	for _, c := range []struct {
		budget int64
		sql    string
	}{
		{4096, `SELECT cat, count(DISTINCT id) AS n FROM t GROUP BY cat`},
		{midInputBudget, `SELECT cat, count(*) AS n, sum(x) AS s, avg(y) AS m FROM t GROUP BY cat`},
	} {
		spillCancelled(t, c.budget, c.sql)
	}
}

// spillCancelled runs sql repeatedly under budget until a cancellation
// lands, then checks no run files outlived the query.
func spillCancelled(t *testing.T, budget int64, sql string) {
	t.Helper()
	db, dir := spillDB(t, budget, 2, 128)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		// Cancel as soon as the statement registers (or immediately if the
		// registry never sees it — either way the query must terminate).
		deadline := time.After(2 * time.Second)
		for {
			select {
			case <-deadline:
				cancel()
				return
			default:
			}
			if len(Queries.List()) > 0 {
				cancel()
				return
			}
		}
	}()
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := db.QueryCtx(ctx, sql); err != nil {
				return // cancelled — good enough
			}
		}
	}()
	<-done
	cancel()
	assertNoSpillResidue(t, dir)
}
