package federation

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"mip/internal/engine"
	"mip/internal/obs"
)

// brokenPart is a merge part that always fails.
type brokenPart struct{}

func (brokenPart) PartName() string                    { return "hospital-down" }
func (brokenPart) Query(string) (*engine.Table, error) { return nil, errors.New("part unreachable") }

// recordDB is a 5000-row table over 500 groups: big enough to trip a 1KB
// ceiling and to spill a grouped aggregate under a 4KB budget.
func recordDB(t *testing.T, opts ...engine.Option) *engine.DB {
	t.Helper()
	db := engine.NewDB(opts...)
	tab := engine.NewTable(engine.Schema{{Name: "g", Type: engine.String}, {Name: "x", Type: engine.Float64}})
	for i := 0; i < 5000; i++ {
		if err := tab.AppendRow(fmt.Sprintf("g%d", i%500), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterTable("t", tab)
	return db
}

func counterValue(name string, labels ...obs.Label) int64 {
	return obs.GetCounter(name, "", labels...).Value()
}

// sinkTotals reads, from each sink, how many statements it has seen.
func sinkTotals() (queries, terminated, tenantQueries int64) {
	queries = counterValue("mip_engine_queries_total")
	for _, v := range []string{engine.VerdictCompleted, engine.VerdictCancelled, engine.VerdictDeadline,
		engine.VerdictMemLimit, engine.VerdictError} {
		terminated += counterValue("mip_engine_queries_terminated_total", obs.Label{Key: "reason", Value: v})
	}
	for _, u := range obs.DefaultTenants.Snapshot() {
		tenantQueries += u.Queries
	}
	return queries, terminated, tenantQueries
}

// TestOneRecordPerStatement runs one statement of every kind of ending and
// checks that every sink saw the same set of statements and the same facts
// about each: the engine's statement counter, its per-verdict counters, the
// slow log, the tenant meter and the audit chain are all fed from one record
// at one emission point. At the parent commit a statement that failed to
// parse reached only the error counter, and DB.Run never reached the slow log.
func TestOneRecordPerStatement(t *testing.T) {
	old := obs.DefaultSlowLog
	obs.DefaultSlowLog = obs.NewSlowLog(512, time.Nanosecond) // keeps every statement
	defer func() { obs.DefaultSlowLog = old }()

	tenant := fmt.Sprintf("one-record-%d", time.Now().UnixNano())
	ctx := engine.WithQueryAttribution(context.Background(), engine.Attribution{
		Tenant: tenant, Job: "exp-record-1", Datasets: []string{"edsd"},
	})
	queries0, terminated0, tenantQueries0 := sinkTotals()
	auditSeq0, _ := obs.DefaultAudit.Head()

	// want maps a marker in the statement text to the verdict it must carry
	// in every sink.
	want := map[string]string{}
	run := func(db *engine.DB, ctx context.Context, marker, sql, verdict string) engine.QueryStats {
		t.Helper()
		want[marker] = verdict
		_, qs, err := db.QueryWithStatsCtx(ctx, sql)
		if (err == nil) != (verdict == engine.VerdictCompleted) || qs.Verdict != verdict {
			t.Fatalf("%s: err = %v, verdict = %q, want %q", marker, err, qs.Verdict, verdict)
		}
		return qs
	}

	db := recordDB(t)
	run(db, ctx, "m_select", `SELECT count(*) AS m_select FROM t`, engine.VerdictCompleted)
	run(db, ctx, "m_insert", `INSERT INTO t VALUES ('m_insert', 1)`, engine.VerdictCompleted)
	run(db, ctx, "m_parse", `SELEC m_parse FROM`, engine.VerdictError)
	run(db, ctx, "m_nocolumn", `SELECT m_nocolumn FROM t`, engine.VerdictError)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	run(db, cancelled, "m_cancel", `SELECT count(*) AS m_cancel FROM t`, engine.VerdictCancelled)
	run(recordDB(t, engine.WithQueryDeadline(time.Nanosecond)), ctx,
		"m_deadline", `SELECT count(*) AS m_deadline FROM t`, engine.VerdictDeadline)
	run(recordDB(t, engine.WithQueryMemLimit(1024)), ctx,
		"m_memlimit", `SELECT x AS m_memlimit FROM t WHERE x >= 0`, engine.VerdictMemLimit)
	spilled := run(recordDB(t, engine.WithQueryMemLimit(4096), engine.WithSpillDir(t.TempDir()), engine.WithMorselSize(128)), ctx,
		"m_spill", `SELECT g, sum(x) AS m_spill FROM t GROUP BY g`, engine.VerdictCompleted)
	if spilled.SpillBytes == 0 {
		t.Fatal("m_spill: the 4KB budget did not spill")
	}

	// DB.Run takes no context: its statement meters under the untagged tenant.
	st, err := engine.Parse(`SELECT count(*) AS m_prepared FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	want["m_prepared"] = engine.VerdictCompleted
	if _, err := db.Run(st); err != nil {
		t.Fatal(err)
	}

	mdb := engine.NewDB()
	mdb.RegisterMerge("t", &engine.MergeTable{
		Schema:    engine.Schema{{Name: "g", Type: engine.String}, {Name: "x", Type: engine.Float64}},
		TableName: "t",
		Parts:     []engine.Part{&engine.LocalPart{Name: "hospital-up", DB: db}, brokenPart{}},
		MinParts:  1,
	})
	degraded := run(mdb, ctx, "m_merge", `SELECT max(x) AS m_merge FROM t`, engine.VerdictCompleted)
	if !reflect.DeepEqual(degraded.Dropped, []string{"hospital-down"}) || degraded.RowsShipped == 0 {
		t.Fatalf("m_merge: dropped = %v shipped = %d", degraded.Dropped, degraded.RowsShipped)
	}

	const unaccounted = 2 // metrics and slow log only
	udb := recordDB(t, engine.WithAccounting(false))
	run(udb, ctx, "m_unacct_ok", `SELECT count(*) AS m_unacct_ok FROM t`, engine.VerdictCompleted)
	run(udb, ctx, "m_unacct_bad", `SELEC m_unacct_bad`, engine.VerdictError)

	// One executed federated statement, then one serve from the result
	// cache: the serve never reaches an engine, so it counts toward the
	// tenant and the audit chain only.
	const served = 1
	m, _ := buildCachedFed(t, 1<<20)
	for i := 0; i <= served; i++ {
		if _, _, err := m.MergeQueryDegradedAs(tenant, []string{"edsd"}, `SELECT avg(age) AS m_cached FROM data`); err != nil {
			t.Fatal(err)
		}
	}

	// Every sink counted the same statements.
	queries1, terminated1, tenantQueries1 := sinkTotals()
	slow := obs.DefaultSlowLog.Entries()
	var audit []obs.AuditRecord
	for _, r := range obs.DefaultAudit.Entries(obs.AuditFilter{Kind: obs.KindQuery}) {
		if r.Seq > auditSeq0 {
			audit = append(audit, r)
		}
	}
	dq := queries1 - queries0
	if dt := terminated1 - terminated0; dt != dq || int64(len(slow)) != dq {
		t.Errorf("engine sinks disagree: queries_total +%d, queries_terminated_total +%d, slow log +%d", dq, dt, len(slow))
	}
	accounted := dq - unaccounted + served
	if du := tenantQueries1 - tenantQueries0; du != accounted || int64(len(audit)) != accounted {
		t.Errorf("accounting sinks disagree: tenant queries +%d, audit records +%d, want %d (= %d engine statements - %d unaccounted + %d served)",
			du, len(audit), accounted, dq, unaccounted, served)
	}

	// Every sink says the same about each statement. Statements pair up by
	// registry id, or by digest where there is none (parse failures).
	key := func(id, digest string) string {
		if id != "" {
			return "id " + id
		}
		return "sql " + digest
	}
	audited := map[string]obs.AuditRecord{}
	for _, r := range audit {
		audited[key(r.QueryID, r.SQLDigest)] = r
	}
	seen := map[string]bool{}
	var u obs.TenantUsage
	u.Verdicts = map[string]int64{}
	for _, rec := range slow {
		marker := ""
		for mk := range want {
			if strings.Contains(rec.SQL, mk) {
				marker = mk
			}
		}
		if marker != "" {
			seen[marker] = true
			if rec.Verdict != want[marker] {
				t.Errorf("%s: slow log verdict %q, want %q", marker, rec.Verdict, want[marker])
			}
		}
		attrs := rec.Attrs()
		if attrs["verdict"] != rec.Verdict || attrs["rows_out"] != fmt.Sprint(rec.RowsOut) ||
			(rec.SpillBytes > 0 && attrs["spill_bytes"] != fmt.Sprint(rec.SpillBytes)) {
			t.Errorf("%s: span attrs %v disagree with the record %+v", rec.SQL, attrs, rec)
		}
		a, ok := audited[key(rec.ID, rec.SQLDigest)]
		if marker == "m_unacct_ok" || marker == "m_unacct_bad" {
			if ok && rec.ID != "" {
				t.Errorf("%s: unaccounted statement was audited", marker)
			}
			continue
		}
		if !ok {
			t.Errorf("%s: in the slow log but not on the audit chain", rec.SQL)
			continue
		}
		if a.Verdict != rec.Verdict || a.Rows != int64(rec.RowsOut) || a.Seconds != rec.Seconds ||
			a.Tenant != rec.Tenant || a.Job != rec.Job || a.SQLDigest != rec.SQLDigest ||
			!reflect.DeepEqual(a.Workers, append([]string(nil), rec.Workers...)) ||
			!reflect.DeepEqual(a.Dropped, append([]string(nil), rec.Dropped...)) {
			t.Errorf("%s: audit record %+v disagrees with the slow-log record %+v", rec.SQL, a, rec)
		}
		if rec.Tenant == tenant {
			u.Queries++
			u.Verdicts[rec.Verdict]++
			if rec.Error != "" {
				u.QueryErrors++
			}
			u.RowsIn += int64(rec.RowsScanned)
			u.RowsOut += int64(rec.RowsOut)
			u.RowsShipped += int64(rec.RowsShipped)
			u.BytesShipped += rec.BytesShipped
			u.MemPeakBytes = max(u.MemPeakBytes, rec.MemPeakBytes)
		}
	}
	for marker := range want {
		if !seen[marker] {
			t.Errorf("%s: statement never reached the slow log", marker)
		}
	}
	// The tenant's account is the sum of its records (plus the cache serve,
	// which has no slow-log entry: one row out, verdict cached).
	got, _ := obs.DefaultTenants.Usage(tenant)
	u.Queries += served
	u.RowsOut += served
	u.Verdicts["cached"] += served
	if got.Queries != u.Queries || got.QueryErrors != u.QueryErrors || got.RowsIn != u.RowsIn ||
		got.RowsOut != u.RowsOut || got.RowsShipped != u.RowsShipped || got.BytesShipped != u.BytesShipped ||
		got.MemPeakBytes != u.MemPeakBytes || !reflect.DeepEqual(got.Verdicts, u.Verdicts) {
		t.Errorf("tenant account %+v is not the sum of its records %+v", got, u)
	}
}
