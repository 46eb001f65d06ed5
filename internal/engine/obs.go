package engine

import (
	"context"
	"time"

	"mip/internal/obs"
)

// QueryStats is one statement's record — the operators accumulate rows,
// vectors and per-operator nanoseconds straight into the embedded
// obs.QueryRecord, and emit hands that record to every sink when the
// statement ends — plus the engine-private state behind it.
type QueryStats struct {
	obs.QueryRecord
	// Root is the executed operator tree (profiled plan). Nil for DDL/DML
	// statements.
	Root *PlanNode

	acct   *MemAccountant // the query's accountant, for stage memory deltas
	handle *queryHandle   // live registry record (current operator, rows)
}

// newQueryStats opens the record of a statement starting now, attributed to
// whoever ctx says it runs for.
func newQueryStats(ctx context.Context, sql string) QueryStats {
	a := queryAttribution(ctx)
	return QueryStats{QueryRecord: obs.QueryRecord{
		Kind:     obs.KindQuery,
		SQL:      sql,
		Tenant:   a.Tenant,
		Job:      a.Job,
		Datasets: a.Datasets,
		Start:    time.Now(),
	}}
}

// emit settles how the statement ended and hands its record to every sink.
// Unaccounted statements (WithAccounting(false)) reach the metrics and the
// slow log only.
func (qs *QueryStats) emit(err error, accounted bool) {
	qs.Verdict = verdictFor(err)
	if err != nil {
		qs.Error = err.Error()
	}
	qs.Seconds = time.Since(qs.Start).Seconds()
	if qs.Root != nil && obs.DefaultSlowLog.Keeps(qs.Seconds) {
		qs.Plan = qs.Root.Render(true)
	}
	obs.Emit(&qs.QueryRecord, &engStatements, accounted)
}

var (
	engTables = obs.GetGauge("mip_engine_tables",
		"Base tables currently registered across engine databases.")

	engStatements = obs.QueryMetrics{
		Queries: obs.GetCounter("mip_engine_queries_total",
			"SQL statements executed by engine databases."),
		Errors: obs.GetCounter("mip_engine_query_errors_total",
			"SQL statements that returned an error."),
		Slow: obs.GetCounter("mip_engine_slow_queries_total",
			"Statements whose wall time exceeded the slow-query threshold."),
		Seconds: obs.GetHistogram("mip_engine_query_seconds",
			"Wall time of one SQL statement in seconds.", nil),
		RowsScanned: obs.GetCounter("mip_engine_rows_scanned_total",
			"Input rows consumed by SELECT pipelines."),
		Vectors: obs.GetCounter("mip_engine_vectors_processed_total",
			"Column vectors materialized by SELECT pipelines."),
		SpillBytes: obs.GetCounter("mip_engine_spill_bytes_total",
			"Run-file bytes written to disk by memory-bounded operators."),
		SpillPartitions: obs.GetCounter("mip_engine_spill_partitions_total",
			"Hash partitions spilled to disk by memory-bounded operators."),
		OpNanos:    opNanosCounters(),
		Terminated: verdictCounters(),
	}
)

func opNanosCounters() (cs [obs.NumOps]*obs.Counter) {
	for op := range cs {
		cs[op] = obs.GetCounter("mip_engine_operator_nanos_total",
			"Nanoseconds spent per SELECT operator.", obs.Label{Key: "op", Value: obs.Op(op).String()})
	}
	return cs
}

func verdictCounters() map[string]*obs.Counter {
	cs := make(map[string]*obs.Counter)
	for _, v := range []string{VerdictCompleted, VerdictCancelled, VerdictDeadline, VerdictMemLimit, VerdictError} {
		cs[v] = obs.GetCounter("mip_engine_queries_terminated_total",
			"Queries finished, by verdict (completed/cancelled/deadline/mem-limit/error).",
			obs.Label{Key: "reason", Value: v})
	}
	return cs
}
