package api

import (
	"net/http"
	"strconv"
	"time"

	"mip/internal/obs"
)

// Tenant-governance endpoints: per-tenant usage accounts (cumulative meters
// plus sliding-window SLO stats) and the tamper-evident audit trail. Both
// are process-global — they aggregate every governed statement and every
// experiment this server has run.

// handleTenants serves every tenant account, sorted by tenant id.
func (s *Server) handleTenants(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, TenantsResponse{Tenants: obs.DefaultTenants.Snapshot()})
}

// handleTenantUsage serves one tenant's account, 404 when the tenant has
// never run anything here.
func (s *Server) handleTenantUsage(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	u, ok := obs.DefaultTenants.Usage(tenant)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown tenant %q", tenant)
		return
	}
	writeJSON(w, http.StatusOK, u)
}

// handleAudit serves the retained audit records, oldest first, filtered by
// the tenant/dataset/kind/since/until/limit query parameters. The response
// carries the live chain head and the result of a full chain verification,
// so a client can detect tampering without replaying the hashes itself.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := obs.AuditFilter{
		Tenant:  q.Get("tenant"),
		Dataset: q.Get("dataset"),
		Kind:    q.Get("kind"),
	}
	if v := q.Get("since"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad since %q: %v", v, err)
			return
		}
		f.Since = t
	}
	if v := q.Get("until"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad until %q: %v", v, err)
			return
		}
		f.Until = t
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		f.Limit = n
	}
	resp := AuditResponse{Records: obs.DefaultAudit.Entries(f), Verified: true}
	if err := obs.DefaultAudit.Verify(); err != nil {
		resp.Verified = false
		resp.VerifyError = err.Error()
	}
	resp.HeadSeq, resp.Head = obs.DefaultAudit.Head()
	writeJSON(w, http.StatusOK, resp)
}
