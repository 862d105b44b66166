package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/qos"
)

func testLibrary(t *testing.T) *component.Library {
	t.Helper()
	lib, err := component.GenerateLibrary(component.DefaultNumFunctions, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestNewGeneratorValidation(t *testing.T) {
	lib := testLibrary(t)
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "nil library", mutate: func(c *Config) { c.Library = nil }},
		{name: "zero nodes", mutate: func(c *Config) { c.NumNodes = 0 }},
		{name: "bad delay range", mutate: func(c *Config) { c.DelayReqPerFunctionMin = 100; c.DelayReqPerFunctionMax = 50 }},
		{name: "bad level", mutate: func(c *Config) { c.Level = QoSLevel(99) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(lib, 100)
			tt.mutate(&cfg)
			if _, err := NewGenerator(cfg, rand.New(rand.NewSource(2))); err == nil {
				t.Error("NewGenerator accepted invalid config")
			}
		})
	}
}

func TestGeneratorNextValidRequests(t *testing.T) {
	lib := testLibrary(t)
	cfg := DefaultConfig(lib, 100)
	gen, err := NewGenerator(cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	seenIDs := make(map[int64]bool)
	for i := 0; i < 200; i++ {
		r := gen.Next()
		if err := r.Validate(); err != nil {
			t.Fatalf("request %d invalid: %v", i, err)
		}
		if seenIDs[r.ID] {
			t.Fatalf("duplicate request ID %d", r.ID)
		}
		seenIDs[r.ID] = true
		if r.Client < 0 || r.Client >= cfg.NumNodes {
			t.Fatalf("client %d out of range", r.Client)
		}
		if r.Duration < sessionMin || r.Duration > sessionMax {
			t.Fatalf("duration %v out of range", r.Duration)
		}
		n := float64(r.Graph.NumPositions())
		if r.QoSReq.Delay < cfg.DelayReqPerFunctionMin*n || r.QoSReq.Delay > cfg.DelayReqPerFunctionMax*n {
			t.Fatalf("delay requirement %v out of per-function range for %v positions", r.QoSReq.Delay, n)
		}
		for _, res := range r.ResReq {
			if res.CPU < cpuReqMin || res.CPU > cpuReqMax {
				t.Fatalf("CPU requirement %v out of range", res.CPU)
			}
			if res.Memory < memoryReqMin || res.Memory > memoryReqMax {
				t.Fatalf("memory requirement %v out of range", res.Memory)
			}
		}
		if r.BandwidthReq < bandwidthReqMin || r.BandwidthReq > bandwidthReqMax {
			t.Fatalf("bandwidth requirement %v out of range", r.BandwidthReq)
		}
	}
}

func TestQoSLevelOrdering(t *testing.T) {
	// Stricter levels must scale requirements down.
	if !(QoSVeryHigh.Scale() < QoSHigh.Scale() && QoSHigh.Scale() < QoSLow.Scale()) {
		t.Errorf("scales not ordered: low=%v high=%v veryhigh=%v",
			QoSLow.Scale(), QoSHigh.Scale(), QoSVeryHigh.Scale())
	}
	if QoSLow.String() != "low QoS" || QoSVeryHigh.String() != "very high QoS" {
		t.Errorf("level names: %q, %q", QoSLow.String(), QoSVeryHigh.String())
	}
}

func TestQoSLevelAffectsRequirements(t *testing.T) {
	lib := testLibrary(t)
	mean := func(level QoSLevel, seed int64) float64 {
		cfg := DefaultConfig(lib, 100)
		cfg.Level = level
		gen, err := NewGenerator(cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for i := 0; i < 500; i++ {
			r := gen.Next()
			sum += r.QoSReq.Delay / float64(r.Graph.NumPositions())
		}
		return sum / 500
	}
	low, high, very := mean(QoSLow, 4), mean(QoSHigh, 4), mean(QoSVeryHigh, 4)
	if !(very < high && high < low) {
		t.Errorf("per-function delay requirements not ordered: low=%v high=%v veryhigh=%v", low, high, very)
	}
}

func TestLossRequirementIsCost(t *testing.T) {
	lib := testLibrary(t)
	gen, err := NewGenerator(DefaultConfig(lib, 50), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	r := gen.Next()
	// The requirement is stored as an additive loss cost; converting back
	// must give a sane probability.
	p := qos.LossProb(r.QoSReq.LossCost)
	if p <= 0 || p >= 1 {
		t.Errorf("loss requirement probability = %v", p)
	}
}

func TestNewArrivalsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tests := []struct {
		name   string
		phases []Phase
	}{
		{name: "empty", phases: nil},
		{name: "zero rate", phases: []Phase{{Until: time.Hour, RatePerMinute: 0}}},
		{name: "non-increasing", phases: []Phase{
			{Until: time.Hour, RatePerMinute: 1},
			{Until: time.Hour, RatePerMinute: 2},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewArrivals(tt.phases, rng); err == nil {
				t.Error("NewArrivals accepted invalid phases")
			}
		})
	}
}

func TestArrivalsRateAt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, err := NewArrivals([]Phase{
		{Until: 50 * time.Minute, RatePerMinute: 40},
		{Until: 100 * time.Minute, RatePerMinute: 80},
		{Until: 150 * time.Minute, RatePerMinute: 60},
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		at   time.Duration
		want float64
	}{
		{at: 0, want: 40},
		{at: 49 * time.Minute, want: 40},
		{at: 50 * time.Minute, want: 80},
		{at: 99 * time.Minute, want: 80},
		{at: 100 * time.Minute, want: 60},
		{at: 200 * time.Minute, want: 60}, // beyond the last phase
	}
	for _, tt := range tests {
		if got := a.RateAt(tt.at); got != tt.want {
			t.Errorf("RateAt(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
}

func TestArrivalsPoissonRate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, err := NewArrivals([]Phase{{Until: math.MaxInt64, RatePerMinute: 60}}, rng) // one per second
	if err != nil {
		t.Fatal(err)
	}
	var t0 time.Duration
	n := 0
	for t0 < 100*time.Minute {
		t0 = a.NextAfter(t0)
		n++
	}
	// Expect ~6000 arrivals in 100 minutes; allow 5% sampling slack.
	if n < 5700 || n > 6300 {
		t.Errorf("arrivals in 100min = %d, want ~6000", n)
	}
}

func TestArrivalsStrictlyIncreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, err := NewArrivals([]Phase{{Until: math.MaxInt64, RatePerMinute: 100000}}, rng) // extreme rate to stress the gap floor
	if err != nil {
		t.Fatal(err)
	}
	var t0 time.Duration
	for i := 0; i < 1000; i++ {
		t1 := a.NextAfter(t0)
		if t1 <= t0 {
			t.Fatalf("arrival %d not strictly after previous: %v <= %v", i, t1, t0)
		}
		t0 = t1
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	lib := testLibrary(t)
	draw := func() []int64 {
		gen, err := NewGenerator(DefaultConfig(lib, 100), rand.New(rand.NewSource(10)))
		if err != nil {
			t.Fatal(err)
		}
		var out []int64
		for i := 0; i < 50; i++ {
			r := gen.Next()
			out = append(out, int64(r.QoSReq.Delay*1e6), int64(r.Duration), int64(r.Client))
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identical seeds", i)
		}
	}
}
