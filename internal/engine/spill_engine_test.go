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

// spillJoinCorpus stresses the grace hash join and the streamed
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

// TestSpillJoinEquivalence requires the grace join (and the streamed
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

// TestSpillJoinReportsStats checks that a budget-crossing join records
// spill stats on its plan node, both standalone and under the streamed
// join→aggregate path (where the aggregate node must spill too).
func TestSpillJoinReportsStats(t *testing.T) {
	db, dir := spillDB(t, 4096, 2, 128)

	_, qs, err := db.QueryWithStats(`SELECT a.id, b.score FROM t a JOIN u b ON a.id = b.id ORDER BY a.id, b.score`)
	if err != nil {
		t.Fatal(err)
	}
	var joinSpills bool
	qs.Root.Walk(func(n *PlanNode) {
		if n.Op == "join" && n.SpillParts > 0 {
			joinSpills = true
		}
	})
	if !joinSpills {
		t.Fatalf("standalone join did not record spill stats:\n%s", qs.Root)
	}
	if qs.SpillBytes <= 0 {
		t.Fatalf("join SpillBytes = %d, want > 0", qs.SpillBytes)
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

// TestSpillCleanupOnError drives a statement that spills during the
// aggregate and then fails in HAVING evaluation; the session spill
// directory must still be removed.
func TestSpillCleanupOnError(t *testing.T) {
	db, dir := spillDB(t, 4096, 2, 128)
	_, err := db.Query(`SELECT cat, count(*) AS n FROM t GROUP BY cat HAVING upper(n) > 'x'`)
	if err == nil {
		t.Fatal("want HAVING type error, got nil")
	}
	assertNoSpillResidue(t, dir)
}

// TestSpillCleanupOnCancel cancels a spilling statement mid-flight and
// checks no run files outlive the query.
func TestSpillCleanupOnCancel(t *testing.T) {
	db, dir := spillDB(t, 4096, 2, 128)
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
			if _, err := db.QueryCtx(ctx, `SELECT cat, count(DISTINCT id) AS n FROM t GROUP BY cat`); err != nil {
				return // cancelled — good enough
			}
		}
	}()
	<-done
	cancel()
	assertNoSpillResidue(t, dir)
}
