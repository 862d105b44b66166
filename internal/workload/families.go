package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/faults"
	"repro/internal/qos"
)

// Family names a concurrent multi-application scenario family: a shape
// of competing-tenant load (and, for some families, of the cluster
// itself) that the harness sweeps seed-by-seed. Each family stresses a
// different interaction between tenants sharing one set of node/link
// residuals.
type Family int

// Scenario families.
const (
	// FamilyFlashCrowd gives one tenant a surge through the middle
	// third of the episode while the others are throttled so the
	// aggregate offered rate is conserved — pure contention shift.
	FamilyFlashCrowd Family = iota + 1
	// FamilyDiurnal staggers sinusoidal day/night curves across
	// tenants; phase offsets make the per-tick aggregate constant.
	FamilyDiurnal
	// FamilyChurn keeps rates flat but gives sessions very short
	// lifetimes, so admission runs against a rapidly recycling ledger.
	FamilyChurn
	// FamilyHetero runs flat load against heterogeneous node classes
	// (fast / slow / memory-constrained) instead of uniform capacity.
	FamilyHetero
	// FamilyZoneOutage runs flat load through correlated rack/zone
	// blackout windows drawn by faults.ZoneCrashes.
	FamilyZoneOutage
)

// Families lists every scenario family in definition order.
func Families() []Family {
	return []Family{FamilyFlashCrowd, FamilyDiurnal, FamilyChurn, FamilyHetero, FamilyZoneOutage}
}

// String names the family as CLI flags and reports spell it.
func (f Family) String() string {
	switch f {
	case FamilyFlashCrowd:
		return "flash-crowd"
	case FamilyDiurnal:
		return "diurnal"
	case FamilyChurn:
		return "churn"
	case FamilyHetero:
		return "hetero-nodes"
	case FamilyZoneOutage:
		return "zone-outage"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// ParseFamily resolves a CLI spelling back to its Family.
func ParseFamily(s string) (Family, error) {
	for _, f := range Families() {
		if f.String() == s {
			return f, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown family %q", s)
}

// TenantPlan is one tenant's share of a multi-application episode.
type TenantPlan struct {
	// Tenant is the tenant label ("t0", "t1", ...).
	Tenant string
	// Weight is the tenant's phi weight (1 = baseline priority).
	Weight float64
	// Rates[t] is the expected arrival count in tick t.
	Rates []float64
	// Arrivals[t] is the Poisson draw realised from Rates[t].
	Arrivals []int
	// Lifetime is how many ticks an admitted session lives before the
	// plan closes it.
	Lifetime int
}

// MultiAppPlanConfig parameterises NewMultiAppPlan.
type MultiAppPlanConfig struct {
	Family  Family
	Seed    int64
	Tenants int
	// Ticks is the episode length in admission rounds.
	Ticks int
	// Load is the base expected arrivals per tenant per tick; every
	// family conserves the aggregate Tenants*Load at each tick.
	Load float64
	// Tick is the virtual duration of one round (default 1s), used to
	// place outage windows on the clock.
	Tick time.Duration
	// NumNodes is the overlay size; required by the hetero-nodes and
	// zone-outage families.
	NumNodes int
	// NodeCapacity is the uniform per-node capacity the hetero family
	// scales per class.
	NodeCapacity qos.Resources
	// Zones partitions nodes for zone-outage (default 4).
	Zones int
}

// MultiAppPlan is a fully materialised multi-tenant episode: who
// arrives when, at what weight, on what cluster shape, under which
// outages. Plans are pure data — the same seed always yields a
// bit-identical plan, so harness runs replay exactly.
type MultiAppPlan struct {
	Family  Family
	Seed    int64
	Ticks   int
	Tick    time.Duration
	Tenants []TenantPlan
	// NodeClasses, when non-nil, overrides per-node capacity: entry i
	// is node i's capacity (hetero-nodes family).
	NodeClasses []qos.Resources
	// Outages, when non-nil, is the correlated blackout schedule
	// (zone-outage family).
	Outages []faults.Crash
	// Zones is the zone count Outages was drawn against.
	Zones int
}

// NewMultiAppPlan materialises one episode of the given family.
func NewMultiAppPlan(cfg MultiAppPlanConfig) (*MultiAppPlan, error) {
	if cfg.Family.String() == fmt.Sprintf("Family(%d)", int(cfg.Family)) {
		return nil, fmt.Errorf("workload: unknown family %d", int(cfg.Family))
	}
	if cfg.Tenants < 1 {
		return nil, fmt.Errorf("workload: Tenants %d < 1", cfg.Tenants)
	}
	if cfg.Ticks < 1 {
		return nil, fmt.Errorf("workload: Ticks %d < 1", cfg.Ticks)
	}
	if cfg.Load <= 0 || math.IsNaN(cfg.Load) || math.IsInf(cfg.Load, 0) {
		return nil, fmt.Errorf("workload: Load %v must be a positive finite rate", cfg.Load)
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Second
	}
	needNodes := cfg.Family == FamilyHetero || cfg.Family == FamilyZoneOutage
	if needNodes && cfg.NumNodes < 1 {
		return nil, fmt.Errorf("workload: family %s needs NumNodes >= 1", cfg.Family)
	}

	p := &MultiAppPlan{
		Family:  cfg.Family,
		Seed:    cfg.Seed,
		Ticks:   cfg.Ticks,
		Tick:    cfg.Tick,
		Tenants: make([]TenantPlan, cfg.Tenants),
	}
	for i := range p.Tenants {
		t := &p.Tenants[i]
		t.Tenant = fmt.Sprintf("t%d", i)
		t.Weight = 1
		t.Rates = rates(cfg.Family, i, cfg.Tenants, cfg.Ticks, cfg.Load)
		t.Lifetime = lifetime(cfg.Family, i, cfg.Ticks)
		if cfg.Family == FamilyDiurnal {
			// Staggered priorities make the weighted-phi objective
			// observable: higher-weight tenants see scaled congestion.
			t.Weight = 1 + 0.5*float64(i)
		}
	}

	switch cfg.Family {
	case FamilyHetero:
		base := cfg.NodeCapacity
		if base.CPU <= 0 || base.Memory <= 0 {
			base = qos.Resources{CPU: 100, Memory: 1000}
		}
		p.NodeClasses = make([]qos.Resources, cfg.NumNodes)
		for n := range p.NodeClasses {
			switch n % 3 {
			case 0: // fast
				p.NodeClasses[n] = base.Scale(2)
			case 1: // slow
				p.NodeClasses[n] = base.Scale(0.5)
			default: // memory-constrained
				p.NodeClasses[n] = qos.Resources{CPU: base.CPU, Memory: base.Memory * 0.25}
			}
		}
	case FamilyZoneOutage:
		zones := cfg.Zones
		if zones <= 0 {
			zones = 4
		}
		if zones > cfg.NumNodes {
			zones = cfg.NumNodes
		}
		p.Zones = zones
		window := time.Duration(cfg.Ticks) * cfg.Tick
		down := time.Duration(max(2, cfg.Ticks/6)) * cfg.Tick
		p.Outages = faults.ZoneCrashes(cfg.Seed, cfg.NumNodes, zones, 1, window, down)
	}

	// Arrival draws come last, tenant-major then tick, from one seeded
	// stream — a fixed draw order is what makes plans bit-replayable.
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(cfg.Family)<<32))
	for i := range p.Tenants {
		t := &p.Tenants[i]
		t.Arrivals = make([]int, cfg.Ticks)
		for tick := range t.Arrivals {
			t.Arrivals[tick] = poisson(rng, t.Rates[tick])
		}
	}
	return p, nil
}

// rates builds tenant i's expected-arrival profile. Every family keeps
// the per-tick aggregate at exactly tenants*load — the families move
// load between tenants, never add or remove it, so sweeps at different
// families are comparable at equal offered load.
func rates(f Family, i, tenants, ticks int, load float64) []float64 {
	out := make([]float64, ticks)
	for t := range out {
		switch f {
		case FamilyFlashCrowd:
			surge := tenants > 1 && t >= ticks/3 && t < 2*ticks/3
			switch {
			case surge && i == 0:
				out[t] = load * (1 + 0.8*float64(tenants-1))
			case surge:
				out[t] = load * 0.2
			default:
				out[t] = load
			}
		case FamilyDiurnal:
			if tenants == 1 {
				out[t] = load
				break
			}
			// Phase-offset sinusoids: sum over i of sin(θ + 2πi/n) is
			// identically zero, so the aggregate stays tenants*load.
			theta := 2 * math.Pi * (float64(t)/float64(ticks) + float64(i)/float64(tenants))
			out[t] = load * (1 + 0.75*math.Sin(theta))
		default: // churn, hetero-nodes, zone-outage: flat competing load
			out[t] = load
		}
	}
	return out
}

// lifetime is the family's session lifetime in ticks.
func lifetime(f Family, i, ticks int) int {
	if f == FamilyChurn {
		return 1 + i%3
	}
	return max(2, ticks/3)
}

// poisson draws a Poisson(lambda) variate via Knuth's product method —
// exact for the small per-tick rates the plans use, and dependent only
// on the seeded rng stream.
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	limit := math.Exp(-lambda)
	k, prod := 0, rng.Float64()
	for prod > limit {
		k++
		prod *= rng.Float64()
	}
	return k
}
