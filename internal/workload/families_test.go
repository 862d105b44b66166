package workload

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/qos"
)

// aggregateRate sums the expected arrival rate over all tenants at tick
// t. Families conserve this at tenants*load for every tick.
func (p *MultiAppPlan) aggregateRate(t int) float64 {
	var sum float64
	for i := range p.Tenants {
		sum += p.Tenants[i].Rates[t]
	}
	return sum
}

// totalArrivals counts the realised arrivals across tenants and ticks.
func (p *MultiAppPlan) totalArrivals() int {
	var n int
	for i := range p.Tenants {
		for _, a := range p.Tenants[i].Arrivals {
			n += a
		}
	}
	return n
}

func planConfig(f Family, seed int64) MultiAppPlanConfig {
	return MultiAppPlanConfig{
		Family:       f,
		Seed:         seed,
		Tenants:      4,
		Ticks:        30,
		Load:         2,
		NumNodes:     8,
		NodeCapacity: qos.Resources{CPU: 100, Memory: 1000},
	}
}

// TestFamilyDeterminism is the satellite table-driven determinism test:
// the same seed must yield a bit-identical plan for every family, and a
// different seed a different arrival schedule.
func TestFamilyDeterminism(t *testing.T) {
	for _, f := range Families() {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			a, err := NewMultiAppPlan(planConfig(f, 11))
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewMultiAppPlan(planConfig(f, 11))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same seed produced different plans")
			}
			c, err := NewMultiAppPlan(planConfig(f, 12))
			if err != nil {
				t.Fatal(err)
			}
			same := true
			for i := range a.Tenants {
				if !reflect.DeepEqual(a.Tenants[i].Arrivals, c.Tenants[i].Arrivals) {
					same = false
				}
			}
			if same {
				t.Error("different seeds produced identical arrival schedules")
			}
		})
	}
}

// TestFamilyAggregateRateConservation: every family moves load between
// tenants without creating or destroying it — the per-tick aggregate
// expected rate is exactly tenants*load.
func TestFamilyAggregateRateConservation(t *testing.T) {
	for _, f := range Families() {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			cfg := planConfig(f, 5)
			p, err := NewMultiAppPlan(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := float64(cfg.Tenants) * cfg.Load
			for tick := 0; tick < p.Ticks; tick++ {
				if got := p.aggregateRate(tick); math.Abs(got-want) > 1e-9 {
					t.Fatalf("tick %d: aggregate rate %v, want %v", tick, got, want)
				}
			}
			for i := range p.Tenants {
				for tick, r := range p.Tenants[i].Rates {
					if r < 0 {
						t.Fatalf("tenant %d tick %d: negative rate %v", i, tick, r)
					}
				}
			}
		})
	}
}

func TestFlashCrowdShape(t *testing.T) {
	cfg := planConfig(FamilyFlashCrowd, 3)
	p, err := NewMultiAppPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mid := cfg.Ticks / 2
	if surged, flat := p.Tenants[0].Rates[mid], p.Tenants[0].Rates[0]; surged <= flat {
		t.Errorf("tenant 0 mid-episode rate %v not above baseline %v", surged, flat)
	}
	if throttled := p.Tenants[1].Rates[mid]; throttled >= cfg.Load {
		t.Errorf("tenant 1 mid-episode rate %v not throttled below %v", throttled, cfg.Load)
	}
}

func TestDiurnalWeightsAndPhase(t *testing.T) {
	p, err := NewMultiAppPlan(planConfig(FamilyDiurnal, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Tenants {
		if want := 1 + 0.5*float64(i); p.Tenants[i].Weight != want {
			t.Errorf("tenant %d weight = %v, want %v", i, p.Tenants[i].Weight, want)
		}
	}
	// Phase offsets: tenants must not share one curve.
	if reflect.DeepEqual(p.Tenants[0].Rates, p.Tenants[1].Rates) {
		t.Error("diurnal tenants 0 and 1 share an identical rate curve")
	}
}

func TestChurnLifetimes(t *testing.T) {
	p, err := NewMultiAppPlan(planConfig(FamilyChurn, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Tenants {
		if want := 1 + i%3; p.Tenants[i].Lifetime != want {
			t.Errorf("tenant %d lifetime = %d, want %d", i, p.Tenants[i].Lifetime, want)
		}
	}
}

func TestHeteroNodeClasses(t *testing.T) {
	cfg := planConfig(FamilyHetero, 3)
	p, err := NewMultiAppPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.NodeClasses) != cfg.NumNodes {
		t.Fatalf("NodeClasses has %d entries, want %d", len(p.NodeClasses), cfg.NumNodes)
	}
	base := cfg.NodeCapacity
	if got := p.NodeClasses[0]; got != base.Scale(2) {
		t.Errorf("fast class = %+v", got)
	}
	if got := p.NodeClasses[1]; got != base.Scale(0.5) {
		t.Errorf("slow class = %+v", got)
	}
	if got := p.NodeClasses[2]; got != (qos.Resources{CPU: base.CPU, Memory: base.Memory * 0.25}) {
		t.Errorf("memory-constrained class = %+v", got)
	}
}

func TestZoneOutageSchedule(t *testing.T) {
	cfg := planConfig(FamilyZoneOutage, 3)
	p, err := NewMultiAppPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Outages) == 0 {
		t.Fatal("zone-outage plan has no outages")
	}
	if p.Zones <= 0 {
		t.Fatalf("zones = %d", p.Zones)
	}
	// Correlation: every crash in the schedule shares one zone, one
	// start instant, and one downtime.
	zone := p.Outages[0].Node % p.Zones
	for _, cr := range p.Outages {
		if cr.Node%p.Zones != zone {
			t.Errorf("crash node %d outside zone %d", cr.Node, zone)
		}
		if cr.At != p.Outages[0].At || cr.Downtime != p.Outages[0].Downtime {
			t.Errorf("crash %+v not synchronised with %+v", cr, p.Outages[0])
		}
		window := time.Duration(cfg.Ticks) * p.Tick
		if cr.At < 0 || cr.At >= window {
			t.Errorf("crash at %v outside episode window %v", cr.At, window)
		}
	}
}

func TestParseFamilyRoundTrip(t *testing.T) {
	for _, f := range Families() {
		got, err := ParseFamily(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFamily(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFamily("nope"); err == nil {
		t.Error("ParseFamily accepted an unknown name")
	}
}

func TestNewMultiAppPlanValidation(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*MultiAppPlanConfig)
	}{
		{"unknown family", func(c *MultiAppPlanConfig) { c.Family = 0 }},
		{"no tenants", func(c *MultiAppPlanConfig) { c.Tenants = 0 }},
		{"no ticks", func(c *MultiAppPlanConfig) { c.Ticks = 0 }},
		{"zero load", func(c *MultiAppPlanConfig) { c.Load = 0 }},
		{"NaN load", func(c *MultiAppPlanConfig) { c.Load = math.NaN() }},
		{"hetero without nodes", func(c *MultiAppPlanConfig) { c.Family = FamilyHetero; c.NumNodes = 0 }},
	}
	for _, m := range mutations {
		cfg := planConfig(FamilyFlashCrowd, 1)
		m.mutate(&cfg)
		if _, err := NewMultiAppPlan(cfg); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

func TestPoissonArrivalsMatchRates(t *testing.T) {
	// Across a long episode the realised arrivals should track the
	// expected aggregate within a loose statistical bound.
	cfg := planConfig(FamilyFlashCrowd, 9)
	cfg.Ticks = 400
	p, err := NewMultiAppPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	expected := float64(cfg.Tenants) * cfg.Load * float64(cfg.Ticks)
	got := float64(p.totalArrivals())
	// Poisson sd is sqrt(expected); 5 sigma keeps this deterministic
	// test far from flaky while catching a broken sampler.
	if math.Abs(got-expected) > 5*math.Sqrt(expected) {
		t.Errorf("total arrivals %v, expected %v +/- %v", got, expected, 5*math.Sqrt(expected))
	}
}
