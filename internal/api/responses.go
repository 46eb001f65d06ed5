package api

import (
	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/obs"
)

// Response bodies of the observability endpoints. The handlers encode these
// and mipctl decodes into the same types, so a field added to a server type
// reaches the CLI without being re-typed there.
type (
	// ActiveQueriesResponse is the body of GET /queries/active.
	ActiveQueriesResponse struct {
		Queries []engine.QueryInfo `json:"queries"`
	}
	// SlowQueriesResponse is the body of GET /queries/slow, newest first.
	SlowQueriesResponse struct {
		ThresholdSeconds float64           `json:"threshold_seconds"`
		Queries          []obs.QueryRecord `json:"queries"`
	}
	// ExplainResponse is the body of POST /queries/explain.
	ExplainResponse struct {
		SQL      string   `json:"sql"`
		Analyzed bool     `json:"analyzed"`
		Datasets []string `json:"datasets"`
		Plan     []string `json:"plan"`
	}
	// CacheStatsResponse is the body of GET /cache.
	CacheStatsResponse struct {
		Plan   engine.PlanCacheStats       `json:"plan"`
		Result federation.ResultCacheStats `json:"result"`
	}
	// CacheFlushResponse is the body of POST /cache/flush.
	CacheFlushResponse struct {
		Plan   int `json:"flushed_plan_entries"`
		Result int `json:"flushed_result_entries"`
	}
	// TenantsResponse is the body of GET /tenants, sorted by tenant id.
	TenantsResponse struct {
		Tenants []obs.TenantUsage `json:"tenants"`
	}
	// AuditResponse is the body of GET /audit: the matching records, oldest
	// first, the live chain head and the outcome of verifying the chain.
	AuditResponse struct {
		Records     []obs.AuditRecord `json:"records"`
		Verified    bool              `json:"verified"`
		VerifyError string            `json:"verify_error,omitempty"`
		HeadSeq     uint64            `json:"head_seq"`
		Head        string            `json:"head"`
	}
	// TraceResponse is the body of GET /experiments/{uuid}/trace.
	TraceResponse struct {
		TraceID string          `json:"trace_id"`
		Spans   []obs.SpanData  `json:"spans"`
		Tree    []*obs.SpanNode `json:"tree"`
	}
	// WorkerView is one element of GET /workers.
	WorkerView struct {
		ID                  string   `json:"id"`
		State               string   `json:"state"`
		ConsecutiveFailures int      `json:"consecutive_failures"`
		LastError           string   `json:"last_error,omitempty"`
		Datasets            []string `json:"datasets"`
	}
)
