package harness

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// reportMultiAppFailure prints the failing seed/family and the tail of
// its schedule log, plus the one-liner replay command.
func reportMultiAppFailure(t *testing.T, rep *MultiAppReport, err error) {
	t.Helper()
	const tail = 40
	log := rep.Log
	if len(log) > tail {
		log = log[len(log)-tail:]
	}
	t.Errorf("seed %d family %s failed: %v\nreplay: ACP_SIM_SEED=%d go test ./internal/harness -run %s -v\nlast %d schedule entries:\n%s",
		rep.Seed, rep.Family, err, rep.Seed, t.Name(), len(log), strings.Join(log, "\n"))
}

// TestMultiAppScenarios sweeps every scenario family through the
// oracle-audited multi-application harness. ACP_SIM_SEEDS widens the
// sweep in CI (50) and nightly (500); ACP_SIM_SEED replays one seed.
func TestMultiAppScenarios(t *testing.T) {
	families := workload.Families()
	if seed, ok := replaySeed(t); ok {
		for _, f := range families {
			rep, err := RunMultiAppScenario(MultiAppConfig{Seed: seed, Family: f, Oracle: true})
			if err != nil {
				reportMultiAppFailure(t, rep, err)
			}
		}
		return
	}
	n := seedCount(t, 3)
	arrivals, admitted, quotaRejected := 0, 0, 0
	perFamilyAdmitted := make(map[string]int)
	for seed := int64(1); seed <= int64(n); seed++ {
		for _, f := range families {
			rep, err := RunMultiAppScenario(MultiAppConfig{Seed: seed, Family: f, Oracle: true})
			if err != nil {
				reportMultiAppFailure(t, rep, err)
				return
			}
			arrivals += rep.Arrivals
			admitted += rep.Admitted
			quotaRejected += rep.QuotaRejected
			perFamilyAdmitted[rep.Family] += rep.Admitted
		}
	}
	// Coverage: the sweep must exercise real admission, real quota
	// pressure, and every family — a degenerate workload would pass the
	// invariants vacuously.
	if arrivals == 0 || admitted == 0 {
		t.Fatalf("sweep admitted %d of %d arrivals; workload is degenerate", admitted, arrivals)
	}
	if quotaRejected == 0 {
		t.Fatal("sweep produced no quota rejections; quotas are not binding")
	}
	for _, f := range families {
		if perFamilyAdmitted[f.String()] == 0 {
			t.Errorf("family %s admitted nothing across %d seeds", f, n)
		}
	}
}

// TestMultiAppDeterminism: the same seed must replay the identical
// episode, log line for log line, for every family.
func TestMultiAppDeterminism(t *testing.T) {
	for _, f := range workload.Families() {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			first, err := RunMultiAppScenario(MultiAppConfig{Seed: 42, Family: f, Oracle: true})
			if err != nil {
				reportMultiAppFailure(t, first, err)
				return
			}
			second, err := RunMultiAppScenario(MultiAppConfig{Seed: 42, Family: f, Oracle: true})
			if err != nil {
				reportMultiAppFailure(t, second, err)
				return
			}
			if len(first.Log) != len(second.Log) {
				t.Fatalf("same seed, different schedule lengths: %d vs %d", len(first.Log), len(second.Log))
			}
			for i := range first.Log {
				if first.Log[i] != second.Log[i] {
					t.Fatalf("same seed diverged at schedule entry %d:\n  run 1: %s\n  run 2: %s",
						i, first.Log[i], second.Log[i])
				}
			}
			if first.Admitted != second.Admitted || first.QuotaRejected != second.QuotaRejected ||
				first.Fairness != second.Fairness {
				t.Fatalf("same seed, different outcomes: %+v vs %+v", first, second)
			}
		})
	}
}

// TestMultiAppFairnessBounds: the reported indices are genuine Jain
// values — inside [1/n, 1] — and the admission index covers every
// tenant's success rate, a tenant that admitted nothing included.
func TestMultiAppFairnessBounds(t *testing.T) {
	for _, f := range workload.Families() {
		rep, err := RunMultiAppScenario(MultiAppConfig{Seed: 7, Family: f, Oracle: false})
		if err != nil {
			reportMultiAppFailure(t, rep, err)
			return
		}
		lo := 1 / float64(rep.Tenants)
		if rep.Fairness < lo-1e-9 || rep.Fairness > 1+1e-9 {
			t.Errorf("family %s: admission fairness %v outside [%v, 1]", f, rep.Fairness, lo)
		}
		if rep.MinLiveFairness < lo-1e-9 || rep.MinLiveFairness > 1+1e-9 {
			t.Errorf("family %s: live fairness %v outside [%v, 1]", f, rep.MinLiveFairness, lo)
		}
		rates := make([]float64, rep.Tenants)
		for i := range rates {
			if rep.TenantArrivals[i] > 0 {
				rates[i] = float64(rep.TenantAdmitted[i]) / float64(rep.TenantArrivals[i])
			}
		}
		if want := metrics.JainIndex(rates); rep.Fairness != want {
			t.Errorf("family %s: admission fairness %v, want %v over all %d tenants", f, rep.Fairness, want, rep.Tenants)
		}
	}
}
