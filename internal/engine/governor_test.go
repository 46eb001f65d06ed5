package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// blockingPart is a merge-table part whose QueryCtx parks until the
// statement's context dies and then surfaces the cancellation cause — a
// deterministic stand-in for a long-running remote part query.
type blockingPart struct {
	name    string
	started chan struct{}
	cause   chan error // receives context.Cause once per query
	once    sync.Once
}

func newBlockingPart(name string) *blockingPart {
	return &blockingPart{name: name, started: make(chan struct{}), cause: make(chan error, 4)}
}

func (p *blockingPart) PartName() string { return p.name }

func (p *blockingPart) QueryCtx(ctx context.Context, _ string) (*Table, error) {
	p.once.Do(func() { close(p.started) })
	<-ctx.Done()
	cause := context.Cause(ctx)
	p.cause <- cause
	return nil, cause
}

func (p *blockingPart) waitCause(t *testing.T) error {
	t.Helper()
	select {
	case err := <-p.cause:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("blocking part never observed a cancellation")
		return nil
	}
}

// blockingDB returns a DB with a merge view "slow" over a single blocking
// part, so any query against it parks mid-execution until cancelled.
func blockingDB(opts ...Option) (*DB, *blockingPart) {
	db := NewDB(opts...)
	bp := newBlockingPart("bp0")
	db.RegisterMerge("slow", &MergeTable{
		Schema:    Schema{{"age", Float64}},
		TableName: "slow",
		Parts:     []Part{bp},
	})
	return db, bp
}

// TestQueryKillEndToEnd drives the operator kill path: the statement shows
// up in the active registry with its SQL, Queries.Cancel aborts it, the
// blocked part observes ErrQueryCancelled as the context cause, and the
// registry drains.
func TestQueryKillEndToEnd(t *testing.T) {
	db, bp := blockingDB()
	const sql = `SELECT avg(age) AS a FROM slow`

	done := make(chan error, 1)
	go func() {
		_, qs, err := db.QueryWithStats(sql)
		if err != nil && qs.Verdict != VerdictCancelled {
			err = fmt.Errorf("verdict %q: %w", qs.Verdict, err)
		}
		done <- err
	}()

	select {
	case <-bp.started:
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached the blocking part")
	}

	var id int64
	for _, q := range Queries.List() {
		if strings.Contains(q.SQL, "FROM slow") {
			id = q.ID
			if q.Operator == "" {
				t.Errorf("active query has no current operator")
			}
			if q.Seconds < 0 {
				t.Errorf("active query has negative age %v", q.Seconds)
			}
		}
	}
	if id == 0 {
		t.Fatalf("blocked statement not visible in Queries.List(): %+v", Queries.List())
	}
	if !Queries.Cancel(id) {
		t.Fatalf("Queries.Cancel(%d) found no live query", id)
	}

	select {
	case err := <-done:
		if !errors.Is(err, ErrQueryCancelled) {
			t.Fatalf("query error = %v, want ErrQueryCancelled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query did not unwind after Cancel")
	}
	if err := bp.waitCause(t); !errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("part context cause = %v, want ErrQueryCancelled", err)
	}
	if Queries.Cancel(id) {
		t.Fatal("Cancel succeeded twice for the same id")
	}
	for _, q := range Queries.List() {
		if q.ID == id {
			t.Fatalf("query %d still registered after finishing", id)
		}
	}
}

// TestQueryDeadline checks the per-statement wall-time ceiling: a query
// stuck in a part is cancelled with ErrQueryDeadline and the deadline
// verdict.
func TestQueryDeadline(t *testing.T) {
	db, bp := blockingDB(WithQueryDeadline(20 * time.Millisecond))

	_, qs, err := db.QueryWithStats(`SELECT count(*) AS n FROM slow`)
	if !errors.Is(err, ErrQueryDeadline) {
		t.Fatalf("query error = %v, want ErrQueryDeadline", err)
	}
	if qs.Verdict != VerdictDeadline {
		t.Fatalf("verdict = %q, want %q", qs.Verdict, VerdictDeadline)
	}
	if err := bp.waitCause(t); !errors.Is(err, ErrQueryDeadline) {
		t.Fatalf("part context cause = %v, want ErrQueryDeadline", err)
	}
}

// TestQueryMemLimit checks the accounted-bytes ceiling: a filter over a
// ~100k-row float column charges ~800KB to the accountant, trips a 1KB
// limit, and the statement dies with the mem-limit verdict.
func TestQueryMemLimit(t *testing.T) {
	db := NewDB(WithQueryMemLimit(1024))
	tab := NewTable(Schema{{"x", Float64}})
	for i := 0; i < 100_000; i++ {
		if err := tab.AppendRow(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterTable("t", tab)

	_, qs, err := db.QueryWithStats(`SELECT x FROM t WHERE x >= 0`)
	if !errors.Is(err, ErrQueryMemLimit) {
		t.Fatalf("query error = %v, want ErrQueryMemLimit", err)
	}
	if qs.Verdict != VerdictMemLimit {
		t.Fatalf("verdict = %q, want %q", qs.Verdict, VerdictMemLimit)
	}
	if qs.MemPeakBytes < 1024 {
		t.Fatalf("peak bytes = %d, want >= limit", qs.MemPeakBytes)
	}
}

// TestQueryStatsAccounting checks the happy path: a completed aggregate
// reports the completed verdict, a positive memory peak, and leaves no
// residue in the registry or the process-wide live-bytes gauge.
func TestQueryStatsAccounting(t *testing.T) {
	db := NewDB()
	tab := NewTable(Schema{{"g", String}, {"x", Float64}})
	for i := 0; i < 10_000; i++ {
		if err := tab.AppendRow(fmt.Sprintf("g%d", i%7), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterTable("t", tab)

	_, qs, err := db.QueryWithStats(`SELECT g, sum(x) AS s FROM t WHERE x >= 10 GROUP BY g`)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Verdict != VerdictCompleted {
		t.Fatalf("verdict = %q, want %q", qs.Verdict, VerdictCompleted)
	}
	if qs.MemPeakBytes <= 0 {
		t.Fatalf("MemPeakBytes = %d, want > 0", qs.MemPeakBytes)
	}
}

// TestAccountingDisabled checks that WithAccounting(false) opts the DB out
// of governance: queries run, but are not registered, metered, or subject
// to limits.
func TestAccountingDisabled(t *testing.T) {
	db := NewDB(WithAccounting(false), WithQueryMemLimit(1))
	tab := NewTable(Schema{{"x", Float64}})
	for i := 0; i < 50_000; i++ {
		if err := tab.AppendRow(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterTable("t", tab)

	_, qs, err := db.QueryWithStats(`SELECT x FROM t WHERE x >= 0`)
	if err != nil {
		t.Fatalf("unaccounted query failed: %v", err)
	}
	if qs.MemPeakBytes != 0 {
		t.Fatalf("MemPeakBytes = %d with accounting off, want 0", qs.MemPeakBytes)
	}
}

// TestMemAccountant exercises the accountant directly: live/peak tracking,
// release, and the exceed hook firing exactly once.
func TestMemAccountant(t *testing.T) {
	fired := 0
	a := &MemAccountant{limit: 100}
	a.onExceed = func() { fired++ }

	a.Charge(60)
	if got := a.Live(); got != 60 {
		t.Fatalf("Live = %d, want 60", got)
	}
	if fired != 0 {
		t.Fatal("limit fired below the ceiling")
	}
	a.Charge(60) // 120 > 100: trips
	if fired != 1 {
		t.Fatalf("limit fired %d times, want 1", fired)
	}
	a.Charge(60) // still over: must not re-fire
	if fired != 1 {
		t.Fatalf("limit re-fired, total %d", fired)
	}
	a.Release(120)
	if got := a.Live(); got != 60 {
		t.Fatalf("Live after release = %d, want 60", got)
	}
	if got := a.Peak(); got != 180 {
		t.Fatalf("Peak = %d, want 180", got)
	}

	// nil accountant: all methods are no-ops.
	var nilA *MemAccountant
	nilA.Charge(10)
	nilA.Release(10)
	if nilA.Live() != 0 || nilA.Peak() != 0 {
		t.Fatal("nil accountant reported non-zero usage")
	}
}

// TestRegistryConcurrency races query execution against registry listing
// and cancellation — meant to run under -race. Every query must end with
// either a completed or a cancelled verdict, and the registry must drain.
func TestRegistryConcurrency(t *testing.T) {
	db := NewDB()
	tab := NewTable(Schema{{"g", String}, {"x", Float64}})
	for i := 0; i < 5_000; i++ {
		if err := tab.AppendRow(fmt.Sprintf("g%d", i%5), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterTable("race_tbl", tab)
	const sql = `SELECT g, sum(x) AS s, count(*) AS n FROM race_tbl WHERE x >= 1 GROUP BY g`

	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() { // lister + canceller
		defer chaos.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, q := range Queries.List() {
				if strings.Contains(q.SQL, "race_tbl") && i%2 == 0 {
					Queries.Cancel(q.ID)
				}
			}
			_ = Queries.Active()
			_ = Queries.LiveBytes()
		}
	}()

	var runners sync.WaitGroup
	for w := 0; w < 8; w++ {
		runners.Add(1)
		go func() {
			defer runners.Done()
			for i := 0; i < 40; i++ {
				_, qs, err := db.QueryWithStats(sql)
				switch {
				case err == nil:
					if qs.Verdict != VerdictCompleted {
						t.Errorf("nil error but verdict %q", qs.Verdict)
					}
				case errors.Is(err, ErrQueryCancelled):
					if qs.Verdict != VerdictCancelled {
						t.Errorf("cancelled error but verdict %q", qs.Verdict)
					}
				default:
					t.Errorf("unexpected query error: %v", err)
				}
			}
		}()
	}
	runners.Wait()
	close(stop)
	chaos.Wait()

	for _, q := range Queries.List() {
		if strings.Contains(q.SQL, "race_tbl") {
			t.Fatalf("query %d leaked in the registry after completion", q.ID)
		}
	}
}

// TestVerdictFor pins the error→verdict mapping, including the wrapped and
// stdlib-context forms that show up on federated paths.
func TestVerdictFor(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, VerdictCompleted},
		{ErrQueryCancelled, VerdictCancelled},
		{fmt.Errorf("part w0: %w", ErrQueryCancelled), VerdictCancelled},
		{context.Canceled, VerdictCancelled},
		{ErrQueryDeadline, VerdictDeadline},
		{context.DeadlineExceeded, VerdictDeadline},
		{ErrQueryMemLimit, VerdictMemLimit},
		{errors.New("boom"), VerdictError},
	}
	for _, c := range cases {
		if got := verdictFor(c.err); got != c.want {
			t.Errorf("verdictFor(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}
