package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// Cumulative accounting: deltas fold into the right tenant, snapshots are
// sorted, and the labeled mip_tenant_* series appear in the registry.
func TestTenantMeterAccounting(t *testing.T) {
	clk := newFakeClock()
	reg := NewRegistry()
	m := NewTenantMeter(reg, clk.now)

	for i := 0; i < 4; i++ {
		m.Record(&QueryRecord{
			Kind: KindQuery, Tenant: "alice", RowsScanned: 1000, RowsOut: 10, RowsShipped: 100,
			BytesShipped: 4096, MemPeakBytes: int64(1000 + i), Seconds: 0.010,
			Verdict: "completed",
		})
	}
	m.Record(&QueryRecord{
		Kind: KindQuery, Tenant: "bob", Seconds: 0.5, Verdict: "mem-limit", Error: "query memory limit exceeded",
	})
	m.Record(&QueryRecord{Kind: KindExperiment, Tenant: "alice", Dropped: []string{"hospital-1"}, Seconds: 0.2})

	snap := m.Snapshot()
	if len(snap) != 2 || snap[0].Tenant != "alice" || snap[1].Tenant != "bob" {
		t.Fatalf("snapshot tenants = %+v, want [alice bob]", snap)
	}
	a := snap[0]
	if a.Queries != 4 || a.RowsIn != 4000 || a.RowsShipped != 400 || a.BytesShipped != 16384 {
		t.Errorf("alice cumulative off: %+v", a)
	}
	if a.MemPeakBytes != 1003 {
		t.Errorf("alice mem peak = %d, want max 1003", a.MemPeakBytes)
	}
	if a.Experiments != 1 || a.DegradedExperiments != 1 {
		t.Errorf("alice experiments = %d/%d, want 1/1", a.Experiments, a.DegradedExperiments)
	}
	if a.Verdicts["completed"] != 4 {
		t.Errorf("alice verdicts = %v", a.Verdicts)
	}
	if got := a.Windows["1m"]; got.Count != 4 {
		t.Errorf("alice 1m window count = %d, want 4 (experiment delta must not feed windows)", got.Count)
	}
	b := snap[1]
	if b.QueryErrors != 1 || b.Verdicts["mem-limit"] != 1 {
		t.Errorf("bob error accounting off: %+v", b)
	}
	if got := b.Windows["1m"]; got.ErrorRate != 1 {
		t.Errorf("bob 1m error rate = %v, want 1", got.ErrorRate)
	}

	if _, ok := m.Usage("nobody"); ok {
		t.Error("Usage invented an account for an unknown tenant")
	}
	u, ok := m.Usage("alice")
	if !ok || u.Queries != 4 {
		t.Errorf("Usage(alice) = %+v ok=%v", u, ok)
	}

	var buf strings.Builder
	reg.WritePrometheus(&buf)
	body := buf.String()
	for _, want := range []string{
		`mip_tenant_queries_total{tenant="alice"} 4`,
		`mip_tenant_bytes_shipped_total{tenant="alice"} 16384`,
		`mip_tenant_query_errors_total{tenant="bob"} 1`,
		`mip_tenant_experiments_total{tenant="alice"} 1`,
		`mip_tenant_qps{tenant="alice",window="1m"}`,
		`mip_tenant_p95_seconds{tenant="bob",window="5m"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// The empty tenant folds into TenantUntagged; tenants past the cap fold
// into TenantOverflow instead of growing the account map without bound.
func TestTenantMeterBoundedCardinality(t *testing.T) {
	clk := newFakeClock()
	m := NewTenantMeter(NewRegistry(), clk.now)

	m.Record(&QueryRecord{Kind: KindQuery})
	if _, ok := m.Usage(TenantUntagged); !ok {
		t.Fatal("empty tenant not folded into the untagged account")
	}

	for i := 0; i < maxTenants+50; i++ {
		m.Record(&QueryRecord{Kind: KindQuery, Tenant: fmt.Sprintf("tenant-%d", i)})
	}
	snap := m.Snapshot()
	if len(snap) > maxTenants+1 {
		t.Fatalf("meter grew to %d accounts, cap is %d(+overflow)", len(snap), maxTenants)
	}
	over, ok := m.Usage(TenantOverflow)
	if !ok || over.Queries == 0 {
		t.Fatalf("overflow account missing or empty: %+v ok=%v", over, ok)
	}
}

// Concurrent recording across tenants must be race-free and lose nothing.
func TestTenantMeterConcurrent(t *testing.T) {
	clk := newFakeClock()
	m := NewTenantMeter(NewRegistry(), clk.now)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", g%2)
			for i := 0; i < 200; i++ {
				m.Record(&QueryRecord{Kind: KindQuery, Tenant: tenant, Seconds: 0.001, Verdict: "completed"})
				_ = m.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	total := int64(0)
	for _, u := range m.Snapshot() {
		total += u.Queries
	}
	if total != 1600 {
		t.Fatalf("recorded %d queries total, want 1600", total)
	}
}
