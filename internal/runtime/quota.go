package runtime

import (
	"errors"
	"fmt"

	"repro/internal/component"
	"repro/internal/qos"
)

// ErrQuotaExceeded is the sentinel every quota rejection unwraps to:
// errors.Is(err, ErrQuotaExceeded) distinguishes "your tenant is over
// budget" from ErrNoComposition's "the cluster has no room".
var ErrQuotaExceeded = errors.New("runtime: tenant quota exceeded")

// TenantQuota caps one tenant's aggregate admission footprint. Zero
// fields are unlimited; the zero value admits everything.
type TenantQuota struct {
	// MaxSessions caps concurrently live sessions.
	MaxSessions int
	// MaxCPU and MaxMemory cap the summed per-position resource
	// requirements of live sessions.
	MaxCPU, MaxMemory float64
	// MaxBandwidthKbps caps the summed per-virtual-link bandwidth
	// demand (request bandwidth x graph edges) of live sessions.
	MaxBandwidthKbps float64
}

// QuotaError is the typed admission rejection: which tenant tripped
// which quota dimension, and by how much.
type QuotaError struct {
	Tenant    string
	Dimension string // "sessions", "cpu", "memory", "bandwidth"
	Used      float64
	Requested float64
	Limit     float64
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("runtime: tenant %q %s quota exceeded: used %g + requested %g > limit %g",
		e.Tenant, e.Dimension, e.Used, e.Requested, e.Limit)
}

// Unwrap makes errors.Is(err, ErrQuotaExceeded) hold.
func (e *QuotaError) Unwrap() error { return ErrQuotaExceeded }

// TenantUsage is a tenant's live admission footprint in quota units.
type TenantUsage struct {
	Sessions      int
	CPU, Memory   float64
	BandwidthKbps float64
}

// quotaTable tracks per-tenant quotas and usage. It has no lock of its
// own: every charge, refund and read runs under Cluster.mu, in the
// prepare and finish phases of a find and in Close.
type quotaTable struct {
	quotas map[string]TenantQuota
	usage  map[string]TenantUsage
}

func newQuotaTable() quotaTable {
	return quotaTable{
		quotas: make(map[string]TenantQuota),
		usage:  make(map[string]TenantUsage),
	}
}

// quotaDemand converts a request's requirements into quota units.
func quotaDemand(graph *component.Graph, resReq []qos.Resources, bandwidthKbps float64) TenantUsage {
	u := TenantUsage{Sessions: 1}
	for _, r := range resReq {
		u.CPU += r.CPU
		u.Memory += r.Memory
	}
	u.BandwidthKbps = bandwidthKbps * float64(len(graph.Edges))
	return u
}

// charge reserves demand against the tenant's quota, or reports the
// first exceeded dimension (checked in a fixed order so rejections are
// deterministic) without reserving anything. Tenants without a quota
// entry are unlimited but still metered.
func (q *quotaTable) charge(tenant string, demand TenantUsage) *QuotaError {
	limit := q.quotas[tenant]
	used := q.usage[tenant]
	switch {
	case limit.MaxSessions > 0 && used.Sessions+demand.Sessions > limit.MaxSessions:
		return &QuotaError{Tenant: tenant, Dimension: "sessions",
			Used: float64(used.Sessions), Requested: float64(demand.Sessions), Limit: float64(limit.MaxSessions)}
	case limit.MaxCPU > 0 && used.CPU+demand.CPU > limit.MaxCPU:
		return &QuotaError{Tenant: tenant, Dimension: "cpu",
			Used: used.CPU, Requested: demand.CPU, Limit: limit.MaxCPU}
	case limit.MaxMemory > 0 && used.Memory+demand.Memory > limit.MaxMemory:
		return &QuotaError{Tenant: tenant, Dimension: "memory",
			Used: used.Memory, Requested: demand.Memory, Limit: limit.MaxMemory}
	case limit.MaxBandwidthKbps > 0 && used.BandwidthKbps+demand.BandwidthKbps > limit.MaxBandwidthKbps:
		return &QuotaError{Tenant: tenant, Dimension: "bandwidth",
			Used: used.BandwidthKbps, Requested: demand.BandwidthKbps, Limit: limit.MaxBandwidthKbps}
	}
	used.Sessions += demand.Sessions
	used.CPU += demand.CPU
	used.Memory += demand.Memory
	used.BandwidthKbps += demand.BandwidthKbps
	q.usage[tenant] = used
	return nil
}

// refund returns a previously charged demand (failed probe, session
// close).
func (q *quotaTable) refund(tenant string, demand TenantUsage) {
	used := q.usage[tenant]
	used.Sessions -= demand.Sessions
	used.CPU -= demand.CPU
	used.Memory -= demand.Memory
	used.BandwidthKbps -= demand.BandwidthKbps
	if used == (TenantUsage{}) {
		delete(q.usage, tenant)
		return
	}
	q.usage[tenant] = used
}

// usageSessions returns the tenant's live session count.
func (q *quotaTable) usageSessions(tenant string) int {
	return q.usage[tenant].Sessions
}

// SetTenantQuota installs (or, with the zero quota, clears) a tenant's
// admission cap. Lowering a quota below current usage only affects
// future admissions; live sessions are never evicted.
func (c *Cluster) SetTenantQuota(tenant string, quota TenantQuota) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if quota == (TenantQuota{}) {
		delete(c.quota.quotas, tenant)
		return
	}
	c.quota.quotas[tenant] = quota
}

// TenantUsageFor returns the tenant's live admission footprint.
func (c *Cluster) TenantUsageFor(tenant string) TenantUsage {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quota.usage[tenant]
}
