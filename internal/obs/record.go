package obs

import (
	"strconv"
	"time"
)

// Kinds of work a QueryRecord describes.
const (
	KindQuery      = "query"
	KindExperiment = "experiment"
	KindCacheFlush = "cache-flush"
)

// Values of QueryRecord.Cache: the cache tier that served the statement.
const (
	CachePlan   = "plan"   // parsed and planned statement from the plan cache
	CacheResult = "result" // whole result from the federated result cache
)

// Op indexes QueryRecord.OpNanos by SELECT operator.
type Op int

const (
	OpFilter Op = iota
	OpAggregate
	OpSort    // ORDER BY and top-k
	OpProject // projection and LIMIT
	OpJoin
	OpMerge // merge-table part fan-out
	NumOps
)

// String is the operator's metric label.
func (o Op) String() string {
	return [NumOps]string{"filter", "aggregate", "sort", "project", "join", "merge"}[o]
}

// QueryRecord is the one account of a finished unit of work: an engine
// statement, a result-cache serve, an experiment, a cache flush. Whoever ran
// the work fills it in place and hands it to Emit once; metrics, slow log,
// tenant meter, audit chain, trace attributes and mipctl all read it.
type QueryRecord struct {
	Kind string `json:"kind"`
	// ID is the statement's active-query registry id or the experiment's
	// uuid; empty for work that never registered.
	ID string `json:"id,omitempty"`
	// SQL is the statement text (an experiment's algorithm name). The audit
	// chain keeps only SQLDigest, which Emit derives.
	SQL       string    `json:"sql"`
	SQLDigest string    `json:"sql_digest,omitempty"`
	Tenant    string    `json:"tenant,omitempty"`
	Job       string    `json:"job,omitempty"`
	Datasets  []string  `json:"datasets,omitempty"`
	Start     time.Time `json:"when"`
	Seconds   float64   `json:"seconds"`
	// Verdict is an engine verdict, "cached"/"shared-degraded" for a result
	// served without executing, or an experiment's final status. Error is
	// empty exactly when the work succeeded.
	Verdict string `json:"reason,omitempty"`
	Error   string `json:"error,omitempty"`

	RowsScanned     int           `json:"rows_scanned"`
	RowsOut         int           `json:"rows_out"` // for a cache flush, entries dropped
	Vectors         int           `json:"vectors,omitempty"`
	OpNanos         [NumOps]int64 `json:"op_nanos"`
	MemPeakBytes    int64         `json:"mem_peak_bytes,omitempty"` // peak accounted memory
	SpillBytes      int64         `json:"spill_bytes,omitempty"`    // run-file bytes written
	SpillPartitions int64         `json:"spill_partitions,omitempty"`
	RowsShipped     int           `json:"rows_shipped,omitempty"` // pulled from merge-table parts
	BytesShipped    int64         `json:"bytes_shipped,omitempty"`
	Workers         []string      `json:"workers,omitempty"`         // parts that answered
	Dropped         []string      `json:"dropped_workers,omitempty"` // parts that failed or were skipped
	Cache           string        `json:"cache,omitempty"`
	// Plan is the analyzed plan; the engine renders it only for statements
	// the slow log keeps.
	Plan []string `json:"plan,omitempty"`
}

// Attrs renders the record as trace-span attributes.
func (r *QueryRecord) Attrs() map[string]string {
	var opNanos int64
	for _, n := range r.OpNanos {
		opNanos += n
	}
	m := map[string]string{
		"rows_scanned": strconv.Itoa(r.RowsScanned),
		"rows_out":     strconv.Itoa(r.RowsOut),
		"vectors":      strconv.Itoa(r.Vectors),
		"op_nanos":     strconv.FormatInt(opNanos, 10),
	}
	if r.MemPeakBytes > 0 {
		m["mem_peak_bytes"] = strconv.FormatInt(r.MemPeakBytes, 10)
	}
	if r.SpillBytes > 0 {
		m["spill_bytes"] = strconv.FormatInt(r.SpillBytes, 10)
	}
	if r.Verdict != "" {
		m["verdict"] = r.Verdict
	}
	if r.Cache != "" {
		m["cache"] = r.Cache
	}
	return m
}

// QueryMetrics are the registry series an engine's statements fold into.
// The engine declares them; Emit is the only writer.
type QueryMetrics struct {
	Queries, Errors, Slow       *Counter
	Seconds                     *Histogram
	RowsScanned, Vectors        *Counter
	OpNanos                     [NumOps]*Counter
	SpillBytes, SpillPartitions *Counter
	Terminated                  map[string]*Counter // by verdict
}

// Emit is the single emission point: it hands the finished record to every
// sink, in this order. Work that ran in an engine passes that engine's
// metrics and is offered to the slow log; accounted work is folded into its
// tenant's account and sealed onto the audit chain (attribution, outcome
// and SQL digest — never the text). Result-cache serves, experiments and
// cache flushes never reached an engine and pass nil metrics.
func Emit(r *QueryRecord, m *QueryMetrics, accounted bool) {
	if r.SQL != "" {
		r.SQLDigest = SQLDigest(r.SQL)
	}
	if m != nil {
		m.Queries.Inc()
		if r.Error != "" {
			m.Errors.Inc()
		}
		m.Seconds.Observe(r.Seconds)
		m.RowsScanned.Add(int64(r.RowsScanned))
		m.Vectors.Add(int64(r.Vectors))
		for op, n := range r.OpNanos {
			m.OpNanos[op].Add(n)
		}
		m.SpillBytes.Add(r.SpillBytes)
		m.SpillPartitions.Add(r.SpillPartitions)
		if c := m.Terminated[r.Verdict]; c != nil {
			c.Inc()
		}
		if DefaultSlowLog.observe(r) {
			m.Slow.Inc()
		}
	}
	if accounted {
		DefaultTenants.Record(r)
		DefaultAudit.Append(AuditRecord{
			Kind:      r.Kind,
			Tenant:    r.Tenant,
			Job:       r.Job,
			QueryID:   r.ID,
			SQLDigest: r.SQLDigest,
			Datasets:  r.Datasets,
			Workers:   r.Workers,
			Dropped:   r.Dropped,
			Verdict:   r.Verdict,
			Seconds:   r.Seconds,
			Rows:      int64(r.RowsOut),
		})
	}
}
