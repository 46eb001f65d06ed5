package obs

import (
	"testing"
	"time"
)

// TestEmitAuditPayloadGolden pins the hash-covered bytes of an emitted
// statement to the ones the parent commit's hand-built AuditRecord produced
// (payload and hash recorded there), so trails written before the record
// existed keep verifying and a new QueryRecord field cannot leak into the
// chain by accident.
func TestEmitAuditPayloadGolden(t *testing.T) {
	old := DefaultAudit
	DefaultAudit = NewAuditLog(4)
	defer func() { DefaultAudit = old }()
	DefaultAudit.SetClock(func() time.Time { return time.Date(2026, 8, 8, 9, 0, 1, 123456789, time.UTC) })

	Emit(&QueryRecord{
		Kind: KindQuery, ID: "17", SQL: "SELECT 1", Tenant: "alice", Job: "exp-1",
		Datasets: []string{"ppmi", "edsd"}, Workers: []string{"hospital-0", "hospital-1"}, Dropped: []string{"hospital-2"},
		Verdict: "completed", Seconds: 0.012, RowsOut: 7,
		// Facts the chain does not cover:
		Start: time.Unix(1, 0), RowsScanned: 1000, MemPeakBytes: 4096, Cache: CachePlan, Plan: []string{"scan"},
	}, nil, true)

	const (
		payload = "0:;1:1;19:1786179601123456789;5:query;5:alice;5:exp-1;2:17;16:e004ebd5b5532a4b;" +
			"2[4:ppmi;4:edsd;]2[10:hospital-0;10:hospital-1;]1[10:hospital-2;]9:completed;16:3f889374bc6a7efa;1:7;"
		hash = "c00a93f0892569d47d6b9a7e850e7635c9cbcb8a571655c207fc62b7ae81a6e7"
	)
	recs := DefaultAudit.Entries(AuditFilter{})
	if len(recs) != 1 {
		t.Fatalf("audit log holds %d records, want 1", len(recs))
	}
	if got := string(recs[0].chainPayload()); got != payload {
		t.Errorf("chain payload changed:\n got %s\nwant %s", got, payload)
	}
	if recs[0].Hash != hash {
		t.Errorf("chain hash = %s, want %s", recs[0].Hash, hash)
	}
}
