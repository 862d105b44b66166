package runtime

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/component"
	"repro/internal/obs"
	"repro/internal/qos"
)

func TestQuotaSessionCapAndRefund(t *testing.T) {
	c := testCluster(t)
	c.SetTenantQuota("acme", TenantQuota{MaxSessions: 2})
	graph := component.NewPathGraph([]component.FunctionID{0, 1})
	qosReq, resReq, bw := easyArgs(2)
	find := func() (SessionID, error) {
		return c.FindApp(FindRequest{Tenant: "acme", Graph: graph, QoSReq: qosReq, ResReq: resReq, BandwidthKbps: bw})
	}

	var ids []SessionID
	for i := 0; i < 2; i++ {
		id, err := find()
		if err != nil {
			t.Fatalf("admission %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	_, err := find()
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third admission error = %v, want ErrQuotaExceeded", err)
	}
	var qerr *QuotaError
	if !errors.As(err, &qerr) {
		t.Fatalf("rejection %v is not a *QuotaError", err)
	}
	if qerr.Tenant != "acme" || qerr.Dimension != "sessions" {
		t.Errorf("QuotaError = %+v, want tenant acme / dimension sessions", qerr)
	}
	if got := c.TenantUsageFor("acme").Sessions; got != 2 {
		t.Errorf("usage sessions = %d, want 2", got)
	}

	// Close refunds; admission opens up again.
	if err := c.Close(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := find(); err != nil {
		t.Fatalf("post-close admission: %v", err)
	}
}

func TestQuotaResourceDimensions(t *testing.T) {
	c := testCluster(t)
	graph := component.NewPathGraph([]component.FunctionID{0, 1})
	qosReq, resReq, bw := easyArgs(2) // 2 x {CPU:5, Memory:50}, bw 50 x 1 edge

	cases := []struct {
		dimension string
		quota     TenantQuota
	}{
		{"cpu", TenantQuota{MaxCPU: 9}},
		{"memory", TenantQuota{MaxMemory: 99}},
		{"bandwidth", TenantQuota{MaxBandwidthKbps: 49}},
	}
	for _, tc := range cases {
		tenant := "cap-" + tc.dimension
		c.SetTenantQuota(tenant, tc.quota)
		_, err := c.FindApp(FindRequest{Tenant: tenant, Graph: graph, QoSReq: qosReq, ResReq: resReq, BandwidthKbps: bw})
		var qerr *QuotaError
		if !errors.As(err, &qerr) || qerr.Dimension != tc.dimension {
			t.Errorf("%s cap: err = %v, want *QuotaError on %q", tc.dimension, err, tc.dimension)
		}
	}
}

func TestQuotaRefundedOnCompositionFailure(t *testing.T) {
	c := testCluster(t)
	c.SetTenantQuota("acme", TenantQuota{MaxSessions: 5})
	graph := component.NewPathGraph([]component.FunctionID{0, 1})
	qosReq, _, bw := easyArgs(2)
	// Impossible resource demand: probe fails, charge must be refunded.
	res := []qos.Resources{{CPU: 1e9}, {CPU: 1e9}}
	if _, err := c.FindApp(FindRequest{Tenant: "acme", Graph: graph, QoSReq: qosReq, ResReq: res, BandwidthKbps: bw}); !errors.Is(err, ErrNoComposition) {
		t.Fatalf("err = %v, want ErrNoComposition", err)
	}
	if usage := c.TenantUsageFor("acme"); usage != (TenantUsage{}) {
		t.Errorf("usage after failed probe = %+v, want zero", usage)
	}
}

// TestFindBatchQuotaNeverOversubscribed drives many concurrent
// admissions from one tenant through FindBatch (run under -race in CI):
// the session quota must never be exceeded no matter how the workers
// interleave, and rejected specs must surface the typed quota error.
func TestFindBatchQuotaNeverOversubscribed(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.IPNodes = 256
	cfg.OverlayNodes = 32
	cfg.NumFunctions = 8
	cfg.Registry = reg
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)

	const cap, specsN = 6, 32
	c.SetTenantQuota("burst", TenantQuota{MaxSessions: cap})
	qosReq, resReq, bw := easyArgs(2)
	specs := make([]FindSpec, specsN)
	for i := range specs {
		specs[i] = FindSpec{
			Tenant:        "burst",
			Graph:         component.NewPathGraph([]component.FunctionID{0, 1}),
			QoSReq:        qosReq,
			ResReq:        resReq,
			BandwidthKbps: bw,
		}
	}
	results, err := c.FindBatch(specs, 8)
	if err != nil {
		t.Fatal(err)
	}

	var admitted, quotaRejected int
	for i, r := range results {
		switch {
		case r.Err == nil:
			admitted++
		case errors.Is(r.Err, ErrQuotaExceeded):
			var qerr *QuotaError
			if !errors.As(r.Err, &qerr) {
				t.Fatalf("spec %d: quota rejection %v is not typed", i, r.Err)
			}
			quotaRejected++
		case errors.Is(r.Err, ErrNoComposition):
			// Cluster contention, not quota — allowed.
		default:
			t.Fatalf("spec %d: unexpected error %v", i, r.Err)
		}
	}
	if admitted > cap {
		t.Fatalf("admitted %d sessions past quota %d", admitted, cap)
	}
	if quotaRejected == 0 {
		t.Fatalf("no typed quota rejections across %d specs over a %d cap", specsN, cap)
	}
	if usage := c.TenantUsageFor("burst").Sessions; usage != admitted {
		t.Errorf("usage sessions = %d, admitted = %d", usage, admitted)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The tenant gauge tracks live sessions; rejections are counted.
	snap := reg.Snapshot()
	if got, ok := vecValue(snap.GaugeVecs["runtime.tenant.sessions"], "burst"); !ok || got != float64(admitted) {
		t.Errorf("tenant sessions gauge = %v (present=%v), want %d", got, ok, admitted)
	}
	if got, ok := vecValue(snap.CounterVecs["runtime.quota_rejections"], "burst"); !ok || got != float64(quotaRejected) {
		t.Errorf("quota rejection counter = %v (present=%v), want %d", got, ok, quotaRejected)
	}
}

func TestHeterogeneousNodeCapacities(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IPNodes = 256
	cfg.OverlayNodes = 16
	cfg.NumFunctions = 8
	caps := make([]qos.Resources, 16)
	for i := range caps {
		caps[i] = qos.Resources{CPU: 50 + float64(i), Memory: 500 + float64(i)}
	}
	cfg.NodeCapacities = caps
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	for i, want := range caps {
		if got := c.NodeCapacity(i); got != want {
			t.Fatalf("node %d capacity = %+v, want %+v", i, got, want)
		}
	}

	cfg.NodeCapacities = caps[:3]
	if _, err := NewCluster(cfg); err == nil {
		t.Error("NewCluster accepted a NodeCapacities length mismatch")
	}
}

// vecValue finds the snapshot value of a single-label vector child.
func vecValue(v obs.VecSnapshot, label string) (float64, bool) {
	for _, lv := range v.Values {
		if len(lv.Labels) == 1 && lv.Labels[0] == label {
			return lv.Value, true
		}
	}
	return 0, false
}

func TestQuotaErrorMessage(t *testing.T) {
	err := &QuotaError{Tenant: "acme", Dimension: "cpu", Used: 90, Requested: 20, Limit: 100}
	want := fmt.Sprintf("runtime: tenant %q cpu quota exceeded: used 90 + requested 20 > limit 100", "acme")
	if err.Error() != want {
		t.Errorf("Error() = %q, want %q", err.Error(), want)
	}
}

// TestQuotaAllocations pins what the admission path may allocate: a
// charge + refund round trip nothing, a rejection its typed error only.
func TestQuotaAllocations(t *testing.T) {
	q := newQuotaTable()
	q.quotas["roomy"] = TenantQuota{MaxSessions: 1 << 30, MaxCPU: 1e18, MaxMemory: 1e18, MaxBandwidthKbps: 1e18}
	demand := TenantUsage{Sessions: 1, CPU: 12, Memory: 120, BandwidthKbps: 60}
	roundTrip := func() {
		if err := q.charge("roomy", demand); err != nil {
			t.Fatal(err)
		}
		q.refund("roomy", demand)
	}
	if n := testing.AllocsPerRun(1000, roundTrip); n != 0 {
		t.Errorf("quota charge + refund allocates %.1f per round trip, want 0", n)
	}

	q.quotas["full"] = TenantQuota{MaxSessions: 1}
	q.usage["full"] = TenantUsage{Sessions: 1}
	reject := func() {
		if err := q.charge("full", TenantUsage{Sessions: 1}); err == nil {
			t.Fatal("charge over quota succeeded")
		}
	}
	if n := testing.AllocsPerRun(1000, reject); n != 1 {
		t.Errorf("quota rejection allocates %.1f per call, want 1 (the *QuotaError)", n)
	}
}

// BenchmarkQuotaChargeRefund measures the admission-path quota check:
// one charge + refund round trip against a bounded quota, the exact
// work FindApp adds per request; the path must stay a map lookup plus
// four comparisons.
func BenchmarkQuotaChargeRefund(b *testing.B) {
	q := newQuotaTable()
	q.quotas["bench"] = TenantQuota{MaxSessions: 1 << 30, MaxCPU: 1e18, MaxMemory: 1e18, MaxBandwidthKbps: 1e18}
	demand := TenantUsage{Sessions: 1, CPU: 12, Memory: 120, BandwidthKbps: 60}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.charge("bench", demand); err != nil {
			b.Fatal(err)
		}
		q.refund("bench", demand)
	}
}

// BenchmarkQuotaReject measures the rejection path: the typed error
// allocation is the only permitted allocation.
func BenchmarkQuotaReject(b *testing.B) {
	q := newQuotaTable()
	q.quotas["bench"] = TenantQuota{MaxSessions: 1}
	q.usage["bench"] = TenantUsage{Sessions: 1}
	demand := TenantUsage{Sessions: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.charge("bench", demand); err == nil {
			b.Fatal("charge over quota succeeded")
		}
	}
}
