package metrics

import (
	"math"
	"math/rand"
	"testing"
)

func TestJainIndexKnownValues(t *testing.T) {
	cases := []struct {
		name   string
		shares []float64
		want   float64
	}{
		{"equal shares", []float64{5, 5, 5, 5}, 1},
		{"single tenant", []float64{7}, 1},
		{"one hogs all of four", []float64{10, 0, 0, 0}, 0.25},
		{"two of four equal", []float64{5, 5, 0, 0}, 0.5},
		{"empty", nil, 1},
		{"all zero", []float64{0, 0, 0}, 1},
	}
	for _, tc := range cases {
		if got := JainIndex(tc.shares); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: JainIndex = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestJainIndexBounds is the satellite property test: for every share
// vector the index lies in [1/n, 1].
func TestJainIndexBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(16)
		shares := make([]float64, n)
		nonZero := 0
		for i := range shares {
			if rng.Float64() < 0.2 {
				continue // keep some zero shares in the mix
			}
			shares[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(7)-3))
			nonZero++
		}
		j := JainIndex(shares)
		if nonZero == 0 {
			if j != 1 {
				t.Fatalf("trial %d: all-zero vector gave %v, want 1", trial, j)
			}
			continue
		}
		lo := 1 / float64(n)
		if j < lo-1e-12 || j > 1+1e-12 {
			t.Fatalf("trial %d: JainIndex(%v) = %v outside [%v, 1]", trial, shares, j, lo)
		}
	}
}

func TestJainIndexScaleInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(10)
		shares := make([]float64, n)
		scaled := make([]float64, n)
		k := math.Pow(10, float64(rng.Intn(9)-4)) * (0.5 + rng.Float64())
		for i := range shares {
			shares[i] = rng.Float64() * 100
			scaled[i] = shares[i] * k
		}
		a, b := JainIndex(shares), JainIndex(scaled)
		if math.Abs(a-b) > 1e-9*math.Max(a, 1) {
			t.Fatalf("trial %d: scale by %v changed index %v -> %v", trial, k, a, b)
		}
	}
}

// TestJainIndexEqualityIffAllEqual: the index is 1 exactly when every
// positive share is equal and no share is zero alongside positive ones.
func TestJainIndexEqualityIffAllEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(10)
		shares := make([]float64, n)
		v := 1 + rng.Float64()*50
		for i := range shares {
			shares[i] = v
		}
		if j := JainIndex(shares); math.Abs(j-1) > 1e-12 {
			t.Fatalf("trial %d: equal shares gave %v", trial, j)
		}
		// Perturb one share: the index must drop strictly below 1.
		shares[rng.Intn(n)] *= 1 + 0.5 + rng.Float64()
		if j := JainIndex(shares); j >= 1-1e-12 {
			t.Fatalf("trial %d: unequal shares %v gave %v, want < 1", trial, shares, j)
		}
	}
}

func TestJainIndexNaNAndNegativeSafety(t *testing.T) {
	cases := []struct {
		name   string
		shares []float64
	}{
		{"NaN share", []float64{1, math.NaN(), 1}},
		{"positive infinity", []float64{1, math.Inf(1), 1}},
		{"negative infinity", []float64{1, math.Inf(-1), 1}},
		{"negative share", []float64{1, -5, 1}},
	}
	for _, tc := range cases {
		j := JainIndex(tc.shares)
		if math.IsNaN(j) || math.IsInf(j, 0) {
			t.Errorf("%s: JainIndex = %v, want finite", tc.name, j)
		}
		// The broken entry counts as a zero share of n=3.
		if lo := 1.0 / 3; j < lo-1e-12 || j > 1+1e-12 {
			t.Errorf("%s: JainIndex = %v outside [%v, 1]", tc.name, j, lo)
		}
	}
	if j := JainIndex([]float64{math.NaN(), math.NaN()}); j != 1 {
		t.Errorf("all-NaN shares: JainIndex = %v, want 1 (treated as all-zero)", j)
	}
}

func TestWeightedJainIndex(t *testing.T) {
	// Shares proportional to weights are perfectly weighted-fair.
	shares := []float64{10, 20, 30}
	weights := []float64{1, 2, 3}
	if j := WeightedJainIndex(shares, weights); math.Abs(j-1) > 1e-12 {
		t.Errorf("proportional shares: index = %v, want 1", j)
	}
	// Equal shares under unequal weights are NOT weighted-fair.
	if j := WeightedJainIndex([]float64{10, 10, 10}, weights); j >= 1-1e-9 {
		t.Errorf("equal shares under unequal weights: index = %v, want < 1", j)
	}
	// Broken weights fall back to 1, reducing to the plain index.
	if j := WeightedJainIndex(shares, []float64{0, math.NaN(), math.Inf(1)}); j != JainIndex(shares) {
		t.Errorf("broken weights: index = %v, want %v", j, JainIndex(shares))
	}
	// Missing weights (short slice) default to 1.
	if j := WeightedJainIndex([]float64{5, 5}, nil); math.Abs(j-1) > 1e-12 {
		t.Errorf("nil weights: index = %v, want 1", j)
	}
}

// TestJainIndexAllocations pins the index at zero allocations: harness
// audits call it per tick.
func TestJainIndexAllocations(t *testing.T) {
	shares := make([]float64, 64)
	for i := range shares {
		shares[i] = float64(i%7) + 1
	}
	if n := testing.AllocsPerRun(1000, func() { JainIndex(shares) }); n != 0 {
		t.Errorf("JainIndex allocates %.1f per call, want 0", n)
	}
}

func BenchmarkJainIndex(b *testing.B) {
	shares := make([]float64, 64)
	rng := rand.New(rand.NewSource(1))
	for i := range shares {
		shares[i] = rng.Float64() * 100
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JainIndex(shares)
	}
}
