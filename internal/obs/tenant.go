package obs

import (
	"sort"
	"sync"
	"time"
)

const (
	// TenantUntagged buckets work that carried no tenant attribution
	// (boot-time catalogue scans, raw worker /query calls, untagged API use).
	TenantUntagged = "(untagged)"
	// TenantOverflow absorbs tenants beyond the cardinality cap so a
	// misbehaving client minting tenant ids cannot grow memory or the
	// metric namespace without bound.
	TenantOverflow = "(overflow)"
	// maxTenants caps distinct tenant accounts (and their labeled series).
	maxTenants = 256
)

// TenantUsage is the JSON snapshot of one tenant's cumulative account plus
// its live SLO windows, as served by GET /tenants.
type TenantUsage struct {
	Tenant              string                 `json:"tenant"`
	Queries             int64                  `json:"queries"`
	QueryErrors         int64                  `json:"query_errors"`
	Experiments         int64                  `json:"experiments"`
	ExperimentErrors    int64                  `json:"experiment_errors,omitempty"`
	DegradedExperiments int64                  `json:"degraded_experiments,omitempty"`
	RowsIn              int64                  `json:"rows_in"`
	RowsOut             int64                  `json:"rows_out"`
	RowsShipped         int64                  `json:"rows_shipped"`
	BytesShipped        int64                  `json:"bytes_shipped"`
	Seconds             float64                `json:"seconds"`
	MemPeakBytes        int64                  `json:"mem_peak_bytes"`
	Verdicts            map[string]int64       `json:"verdicts,omitempty"`
	FirstSeen           time.Time              `json:"first_seen"`
	LastSeen            time.Time              `json:"last_seen"`
	Windows             map[string]WindowStats `json:"windows"`
}

// tenantAccount is the live state behind one TenantUsage. Cumulative
// fields live under mu; the labeled registry counters are atomic and
// updated outside it.
type tenantAccount struct {
	mu       sync.Mutex
	u        TenantUsage // Verdicts/Windows unused here; see snapshot
	verdicts map[string]int64
	windows  []*slidingWindow

	cQueries, cErrors, cRowsShipped, cBytesShipped, cExperiments *Counter
	gSeconds                                                     *Gauge
}

// TenantMeter folds per-query and per-experiment usage into bounded
// per-tenant accounts, each with cumulative counters, labeled mip_tenant_*
// registry series, and sliding SLO windows. The clock is injectable so
// window rotation is testable.
type TenantMeter struct {
	reg      *Registry
	now      func() time.Time
	mu       sync.RWMutex
	accounts map[string]*tenantAccount
}

// NewTenantMeter returns a meter registering its series against reg and
// reading time from now.
func NewTenantMeter(reg *Registry, now func() time.Time) *TenantMeter {
	return &TenantMeter{reg: reg, now: now, accounts: make(map[string]*tenantAccount)}
}

// DefaultTenants is the process-wide meter the engine and api record into.
var DefaultTenants = NewTenantMeter(Default, time.Now)

func (m *TenantMeter) account(tenant string) *tenantAccount {
	if tenant == "" {
		tenant = TenantUntagged
	}
	m.mu.RLock()
	a := m.accounts[tenant]
	m.mu.RUnlock()
	if a != nil {
		return a
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if a = m.accounts[tenant]; a != nil {
		return a
	}
	if len(m.accounts) >= maxTenants && tenant != TenantOverflow {
		if a = m.accounts[TenantOverflow]; a != nil {
			return a
		}
		tenant = TenantOverflow
	}
	a = m.newAccount(tenant)
	m.accounts[tenant] = a
	return a
}

// newAccount builds the account and registers its labeled series. Called
// under m.mu so concurrent first touches observe one fully built account.
func (m *TenantMeter) newAccount(tenant string) *tenantAccount {
	now := m.now().UTC()
	a := &tenantAccount{verdicts: make(map[string]int64)}
	a.u.Tenant = tenant
	a.u.FirstSeen = now
	a.u.LastSeen = now
	lt := Label{"tenant", tenant}
	a.cQueries = m.reg.Counter("mip_tenant_queries_total",
		"Statements metered per tenant.", lt)
	a.cErrors = m.reg.Counter("mip_tenant_query_errors_total",
		"Statements per tenant ending in a non-completed verdict.", lt)
	a.cRowsShipped = m.reg.Counter("mip_tenant_rows_shipped_total",
		"Rows shipped from federated parts per tenant.", lt)
	a.cBytesShipped = m.reg.Counter("mip_tenant_bytes_shipped_total",
		"Bytes shipped from federated parts per tenant.", lt)
	a.cExperiments = m.reg.Counter("mip_tenant_experiments_total",
		"Experiments finished per tenant.", lt)
	a.gSeconds = m.reg.Gauge("mip_tenant_query_seconds_total",
		"Cumulative statement wall time per tenant.", lt)
	for _, spec := range DefaultWindows {
		w := newSlidingWindow(spec)
		a.windows = append(a.windows, w)
		lw := Label{"window", spec.Name}
		m.reg.GaugeFunc("mip_tenant_qps",
			"Tenant statements per second over the window.",
			func() float64 { return w.stats(m.now()).QPS }, lt, lw)
		m.reg.GaugeFunc("mip_tenant_error_rate",
			"Fraction of tenant statements failing over the window.",
			func() float64 { return w.stats(m.now()).ErrorRate }, lt, lw)
		m.reg.GaugeFunc("mip_tenant_p95_seconds",
			"Tenant p95 statement latency over the window.",
			func() float64 { return w.stats(m.now()).P95 }, lt, lw)
	}
	return a
}

// Record folds one finished statement or experiment into its tenant's
// account; statements also feed the tenant's SLO windows. Other kinds of
// record (cache flushes) are audited but not metered.
func (m *TenantMeter) Record(r *QueryRecord) {
	query := r.Kind == KindQuery
	if !query && r.Kind != KindExperiment {
		return
	}
	failed := r.Error != ""
	a := m.account(r.Tenant)
	now := m.now()

	a.mu.Lock()
	if query {
		a.u.Queries++
		if failed {
			a.u.QueryErrors++
		}
		if r.Verdict != "" {
			a.verdicts[r.Verdict]++
		}
	} else {
		a.u.Experiments++
		if failed {
			a.u.ExperimentErrors++
		}
		if len(r.Dropped) > 0 {
			a.u.DegradedExperiments++
		}
	}
	a.u.RowsIn += int64(r.RowsScanned)
	a.u.RowsOut += int64(r.RowsOut)
	a.u.RowsShipped += int64(r.RowsShipped)
	a.u.BytesShipped += r.BytesShipped
	a.u.Seconds += r.Seconds
	a.u.MemPeakBytes = max(a.u.MemPeakBytes, r.MemPeakBytes)
	a.u.LastSeen = now.UTC()
	a.mu.Unlock()

	if query {
		for _, w := range a.windows {
			w.observe(now, r.Seconds, failed)
		}
		a.cQueries.Inc()
		if failed {
			a.cErrors.Inc()
		}
	} else {
		a.cExperiments.Inc()
	}
	a.cRowsShipped.Add(int64(r.RowsShipped))
	a.cBytesShipped.Add(r.BytesShipped)
	if r.Seconds > 0 {
		a.gSeconds.Add(r.Seconds)
	}
}

func (a *tenantAccount) snapshot(now time.Time) TenantUsage {
	a.mu.Lock()
	u := a.u
	u.Verdicts = make(map[string]int64, len(a.verdicts))
	for k, v := range a.verdicts {
		u.Verdicts[k] = v
	}
	a.mu.Unlock()
	u.Windows = make(map[string]WindowStats, len(a.windows))
	for _, w := range a.windows {
		u.Windows[w.spec.Name] = w.stats(now)
	}
	return u
}

// Usage returns one tenant's snapshot.
func (m *TenantMeter) Usage(tenant string) (TenantUsage, bool) {
	m.mu.RLock()
	a := m.accounts[tenant]
	m.mu.RUnlock()
	if a == nil {
		return TenantUsage{}, false
	}
	return a.snapshot(m.now()), true
}

// Snapshot returns every tenant's usage, sorted by tenant name.
func (m *TenantMeter) Snapshot() []TenantUsage {
	m.mu.RLock()
	accounts := make([]*tenantAccount, 0, len(m.accounts))
	for _, a := range m.accounts {
		accounts = append(accounts, a)
	}
	m.mu.RUnlock()
	now := m.now()
	out := make([]TenantUsage, 0, len(accounts))
	for _, a := range accounts {
		out = append(out, a.snapshot(now))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
