package tuning

import (
	"math"
	"testing"
)

// sigmoidProfile mimics the paper's Figure 5 curves: success rises
// steeply with alpha and saturates at ceiling.
func sigmoidProfile(knee, ceiling float64) Profiler {
	return func(alpha float64) float64 {
		return ceiling * (1 - math.Exp(-alpha/knee))
	}
}

func TestNewTunerValidation(t *testing.T) {
	prof := sigmoidProfile(0.1, 1)
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "zero target", mutate: func(c *Config) { c.Target = 0 }},
		{name: "target above one", mutate: func(c *Config) { c.Target = 1.1 }},
		{name: "zero threshold", mutate: func(c *Config) { c.ErrorThreshold = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if _, err := NewTuner(cfg, prof); err == nil {
				t.Error("NewTuner accepted invalid config")
			}
		})
	}
	if _, err := NewTuner(DefaultConfig(), nil); err == nil {
		t.Error("nil profiler accepted")
	}
}

func TestTunerStartsAtBase(t *testing.T) {
	tn, err := NewTuner(DefaultConfig(), sigmoidProfile(0.1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := tn.Ratio(); got != 0.1 {
		t.Errorf("initial ratio = %v, want base 0.1", got)
	}
	if !math.IsNaN(tn.Predict(0.3)) {
		t.Error("Predict before profiling should be NaN")
	}
}

func TestTunerFindsMinimalRatio(t *testing.T) {
	// With a steep profile, 90% is reachable around alpha where
	// 1-exp(-a/0.1) >= 0.9 -> a >= 0.23; grid steps give 0.3.
	tn, err := NewTuner(DefaultConfig(), sigmoidProfile(0.1, 1))
	if err != nil {
		t.Fatal(err)
	}
	tn.Observe(0.5) // first observation profiles unconditionally
	if got := tn.Ratio(); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("tuned ratio = %v, want 0.3", got)
	}
	if tn.Reprofiles() != 1 {
		t.Errorf("Reprofiles = %d, want 1", tn.Reprofiles())
	}
}

func TestTunerStableWhenPredictionAccurate(t *testing.T) {
	tn, err := NewTuner(DefaultConfig(), sigmoidProfile(0.1, 1))
	if err != nil {
		t.Fatal(err)
	}
	tn.Observe(0.9)
	ratio := tn.Ratio()
	predicted := tn.Predict(ratio)
	// Feed measurements within the 2% band: no re-profiling, no change.
	for i := 0; i < 5; i++ {
		if changed := tn.Observe(predicted + 0.01); changed {
			t.Fatal("ratio changed despite accurate prediction")
		}
	}
	if tn.Reprofiles() != 1 {
		t.Errorf("Reprofiles = %d, want 1", tn.Reprofiles())
	}
	if tn.Ratio() != ratio {
		t.Errorf("ratio drifted to %v", tn.Ratio())
	}
}

func TestTunerReactsToWorkloadIncrease(t *testing.T) {
	// Conditions change underneath the tuner: the profile flattens
	// (heavier workload), measured success collapses, the tuner must
	// re-profile and raise alpha — the Figure 8(b) scenario.
	heavy := false
	prof := func(alpha float64) float64 {
		if heavy {
			return sigmoidProfile(0.35, 0.95)(alpha)
		}
		return sigmoidProfile(0.1, 1)(alpha)
	}
	tn, err := NewTuner(DefaultConfig(), prof)
	if err != nil {
		t.Fatal(err)
	}
	tn.Observe(0.5)
	light := tn.Ratio()

	heavy = true
	if changed := tn.Observe(0.55); !changed {
		t.Fatal("tuner ignored a collapsed success rate")
	}
	if tn.Ratio() <= light {
		t.Errorf("ratio did not increase under load: %v -> %v", light, tn.Ratio())
	}

	// Load drops again: after another misprediction the ratio relaxes.
	heavy = false
	tn.Observe(1.0)
	if tn.Ratio() != light {
		t.Errorf("ratio did not relax after load drop: %v, want %v", tn.Ratio(), light)
	}
}

func TestTunerUnreachableTargetSaturates(t *testing.T) {
	// Ceiling 0.7 < target 0.9: the tuner must settle at the saturation
	// point rather than chasing the target to the cap forever.
	tn, err := NewTuner(DefaultConfig(), sigmoidProfile(0.05, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	tn.Observe(0.3)
	got := tn.Ratio()
	if got > 0.7 {
		t.Errorf("ratio = %v, want saturation well below cap", got)
	}
	if p := tn.Predict(got); math.Abs(p-0.7) > 0.05 {
		t.Errorf("prediction at chosen ratio = %v, want near ceiling 0.7", p)
	}
}

func TestPredictInterpolates(t *testing.T) {
	tn, err := NewTuner(DefaultConfig(), sigmoidProfile(0.2, 1))
	if err != nil {
		t.Fatal(err)
	}
	tn.Observe(0.5)
	// Prediction between grid points must lie between their values.
	p25 := tn.Predict(0.25)
	p2, p3 := tn.Predict(0.2), tn.Predict(0.3)
	if p25 < math.Min(p2, p3)-1e-9 || p25 > math.Max(p2, p3)+1e-9 {
		t.Errorf("Predict(0.25) = %v outside [%v, %v]", p25, p2, p3)
	}
	// Out-of-range queries clamp to the profile's ends.
	if got := tn.Predict(0.0); got != tn.Predict(0.1) {
		t.Errorf("low clamp: %v vs %v", got, tn.Predict(0.1))
	}
	if got := tn.Predict(1.0); got < tn.Predict(0.5) {
		t.Errorf("high clamp decreasing: %v", got)
	}
}

func TestTunerMonotoneEnvelope(t *testing.T) {
	// A noisy profiler (non-monotone samples) must still yield a
	// monotone profile, since success cannot decrease with more probes.
	calls := 0
	noisy := func(alpha float64) float64 {
		calls++
		base := sigmoidProfile(0.1, 1)(alpha)
		if calls%2 == 0 {
			base -= 0.2 // simulate a noisy dip
		}
		return base
	}
	tn, err := NewTuner(DefaultConfig(), noisy)
	if err != nil {
		t.Fatal(err)
	}
	tn.Observe(0.5)
	prev := -1.0
	for alpha := 0.1; alpha <= 1.0; alpha += 0.1 {
		p := tn.Predict(alpha)
		if p < prev-1e-9 {
			t.Fatalf("profile not monotone at alpha=%v: %v < %v", alpha, p, prev)
		}
		prev = p
	}
}
