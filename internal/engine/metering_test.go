package engine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mip/internal/obs"
)

// meteringDB builds a DB with a local table and a one-part merge view, so
// statements exercise both the local and the federated (shipped-bytes)
// paths.
func meteringDB(t *testing.T) *DB {
	t.Helper()
	pdb := NewDB()
	ptab := NewTable(Schema{{"age", Float64}})
	for i := 0; i < 1000; i++ {
		if err := ptab.AppendRow(float64(20 + i%60)); err != nil {
			t.Fatal(err)
		}
	}
	pdb.RegisterTable("cohort", ptab)

	db := NewDB()
	db.RegisterMerge("cohort", &MergeTable{
		Schema:    Schema{{"age", Float64}},
		TableName: "cohort",
		Parts:     []Part{&LocalPart{Name: "hospital-0", DB: pdb}},
	})
	return db
}

// A governed statement run under WithQueryAttribution must land in the
// tenant meter (with its shipped bytes) and on the audit chain with the
// full attribution.
func TestQueryMeteringAndAudit(t *testing.T) {
	db := meteringDB(t)
	tenant := fmt.Sprintf("meter-test-%d", time.Now().UnixNano())
	ctx := WithQueryAttribution(context.Background(), Attribution{
		Tenant:   tenant,
		Job:      "exp-meter-1",
		Datasets: []string{"cohort"},
	})

	_, qs, err := db.QueryWithStatsCtx(ctx, `SELECT avg(age) AS a FROM cohort`)
	if err != nil {
		t.Fatal(err)
	}
	if qs.RowsShipped == 0 || qs.BytesShipped == 0 {
		t.Fatalf("merge statement shipped rows=%d bytes=%d, want > 0", qs.RowsShipped, qs.BytesShipped)
	}
	if len(qs.Workers) != 1 || qs.Workers[0] != "hospital-0" {
		t.Fatalf("qs.Workers = %v, want [hospital-0]", qs.Workers)
	}

	u, ok := obs.DefaultTenants.Usage(tenant)
	if !ok {
		t.Fatalf("tenant %q missing from the meter", tenant)
	}
	// The merge statement AND its in-process part statement both run
	// governed under the same attribution: two metered statements, two
	// audit records — every hospital-side access leaves its own entry.
	if u.Queries != 2 || u.Verdicts[VerdictCompleted] != 2 {
		t.Fatalf("tenant usage = %+v, want 2 completed statements (master + part)", u)
	}
	if u.BytesShipped != qs.BytesShipped || u.RowsShipped != int64(qs.RowsShipped) {
		t.Fatalf("meter shipped %d/%d, stats say %d/%d",
			u.RowsShipped, u.BytesShipped, qs.RowsShipped, qs.BytesShipped)
	}
	if u.Windows["1m"].Count != 2 {
		t.Fatalf("1m SLO window count = %d, want 2", u.Windows["1m"].Count)
	}

	recs := obs.DefaultAudit.Entries(obs.AuditFilter{Tenant: tenant})
	if len(recs) != 2 {
		t.Fatalf("audit holds %d records for the tenant, want 2 (master + part)", len(recs))
	}
	var master *obs.AuditRecord
	for i := range recs {
		if len(recs[i].Workers) > 0 {
			master = &recs[i]
		}
	}
	if master == nil {
		t.Fatalf("no audit record names the touched workers: %+v", recs)
	}
	if master.Kind != "query" || master.Job != "exp-meter-1" || master.Verdict != VerdictCompleted {
		t.Fatalf("audit record = %+v", *master)
	}
	if master.SQLDigest != obs.SQLDigest(`SELECT avg(age) AS a FROM cohort`) {
		t.Fatalf("audit digest %q does not match the statement", master.SQLDigest)
	}
	if len(master.Datasets) != 1 || master.Datasets[0] != "cohort" {
		t.Fatalf("audit datasets = %v, want [cohort]", master.Datasets)
	}
	if len(master.Workers) != 1 || master.Workers[0] != "hospital-0" {
		t.Fatalf("audit workers = %v, want [hospital-0]", master.Workers)
	}
	if err := obs.DefaultAudit.Verify(); err != nil {
		t.Fatalf("live audit chain failed verification: %v", err)
	}

	// A failing statement meters as an error with its verdict.
	if _, _, err := db.QueryWithStatsCtx(ctx, `SELECT nosuch FROM cohort`); err == nil {
		t.Fatal("expected an error for an unknown column")
	}
	u, _ = obs.DefaultTenants.Usage(tenant)
	if u.QueryErrors == 0 || u.Verdicts[VerdictError] == 0 {
		t.Fatalf("after failed statement usage = %+v, want error verdicts recorded", u)
	}
}

// Slow-log entries carry the statement's attribution so they join against
// the audit trail.
func TestSlowLogCarriesAttribution(t *testing.T) {
	db := meteringDB(t)
	old := obs.DefaultSlowLog.Threshold()
	obs.DefaultSlowLog.SetThreshold(time.Nanosecond)
	defer obs.DefaultSlowLog.SetThreshold(old)

	tenant := fmt.Sprintf("slow-test-%d", time.Now().UnixNano())
	ctx := WithQueryAttribution(context.Background(), Attribution{
		Tenant: tenant, Job: "exp-slow-1", Datasets: []string{"cohort"},
	})
	if _, _, err := db.QueryWithStatsCtx(ctx, `SELECT count(*) AS n FROM cohort`); err != nil {
		t.Fatal(err)
	}
	for _, e := range obs.DefaultSlowLog.Entries() {
		if e.Tenant == tenant {
			if e.Job != "exp-slow-1" || len(e.Datasets) != 1 || e.Datasets[0] != "cohort" {
				t.Fatalf("slow entry attribution = %+v", e)
			}
			return
		}
	}
	t.Fatal("slow log has no entry for the attributed statement")
}

// Statements with no attribution fold into the untagged tenant account —
// they must still be metered and audited, never dropped.
func TestUntaggedStatementsMetered(t *testing.T) {
	db := meteringDB(t)
	before, _ := obs.DefaultTenants.Usage(obs.TenantUntagged)
	if _, err := db.Query(`SELECT max(age) AS m FROM cohort`); err != nil {
		t.Fatal(err)
	}
	after, ok := obs.DefaultTenants.Usage(obs.TenantUntagged)
	if !ok || after.Queries <= before.Queries {
		t.Fatalf("untagged account did not grow: before=%d after=%d", before.Queries, after.Queries)
	}
}
