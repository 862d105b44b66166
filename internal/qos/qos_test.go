package qos

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLossCostRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		p    float64
	}{
		{name: "zero", p: 0},
		{name: "one percent", p: 0.01},
		{name: "half", p: 0.5},
		{name: "high", p: 0.99},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := LossProb(LossCost(tt.p))
			if math.Abs(got-tt.p) > 1e-12 {
				t.Errorf("round trip of %v = %v", tt.p, got)
			}
		})
	}
}

func TestLossCostBoundaries(t *testing.T) {
	if got := LossCost(1); !math.IsInf(got, 1) {
		t.Errorf("LossCost(1) = %v, want +Inf", got)
	}
	if got := LossCost(-0.5); got != 0 {
		t.Errorf("LossCost(-0.5) = %v, want 0", got)
	}
	if got := LossProb(math.Inf(1)); got != 1 {
		t.Errorf("LossProb(+Inf) = %v, want 1", got)
	}
	if got := LossProb(-1); got != 0 {
		t.Errorf("LossProb(-1) = %v, want 0", got)
	}
}

// TestLossCostAdditivity is the core property the transform exists for:
// adding loss costs must equal composing independent loss probabilities.
func TestLossCostAdditivity(t *testing.T) {
	f := func(a, b uint16) bool {
		p := float64(a) / 70000 // in [0, ~0.94)
		q := float64(b) / 70000
		composed := 1 - (1-p)*(1-q)
		sum := LossCost(p) + LossCost(q)
		return math.Abs(LossProb(sum)-composed) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorAddSub(t *testing.T) {
	f := func(d1, l1, d2, l2 uint16) bool {
		v := Vector{Delay: float64(d1), LossCost: float64(l1) / 1000}
		w := Vector{Delay: float64(d2), LossCost: float64(l2) / 1000}
		back := v.Add(w).Sub(w)
		return math.Abs(back.Delay-v.Delay) < 1e-9 &&
			math.Abs(back.LossCost-v.LossCost) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorWithin(t *testing.T) {
	req := Vector{Delay: 100, LossCost: 0.05}
	tests := []struct {
		name string
		v    Vector
		want bool
	}{
		{name: "well within", v: Vector{Delay: 50, LossCost: 0.01}, want: true},
		{name: "exactly at bound", v: Vector{Delay: 100, LossCost: 0.05}, want: true},
		{name: "delay violated", v: Vector{Delay: 101, LossCost: 0.01}, want: false},
		{name: "loss violated", v: Vector{Delay: 50, LossCost: 0.06}, want: false},
		{name: "both violated", v: Vector{Delay: 200, LossCost: 1}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Within(req); got != tt.want {
				t.Errorf("Within(%v, %v) = %v, want %v", tt.v, req, got, tt.want)
			}
		})
	}
}

func TestMaxRatio(t *testing.T) {
	req := Vector{Delay: 100, LossCost: 0.1}
	tests := []struct {
		name string
		v    Vector
		want float64
	}{
		{name: "delay dominates", v: Vector{Delay: 90, LossCost: 0.01}, want: 0.9},
		{name: "loss dominates", v: Vector{Delay: 10, LossCost: 0.09}, want: 0.9},
		{name: "violation exceeds one", v: Vector{Delay: 150, LossCost: 0}, want: 1.5},
		{name: "zero vector", v: Vector{}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.MaxRatio(req); math.Abs(got-tt.want) > 1e-9 {
				t.Errorf("MaxRatio = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMaxRatioZeroRequirement(t *testing.T) {
	// A zero requirement with a positive accumulated value is an
	// unconditional violation.
	v := Vector{Delay: 1}
	if got := v.MaxRatio(Vector{}); !math.IsInf(got, 1) {
		t.Errorf("MaxRatio with zero requirement = %v, want +Inf", got)
	}
	// A zero requirement with a zero value is trivially satisfied.
	if got := (Vector{}).MaxRatio(Vector{}); got != 0 {
		t.Errorf("MaxRatio of zero over zero = %v, want 0", got)
	}
}

// TestMaxRatioConsistentWithWithin checks the invariant the risk function
// depends on: MaxRatio <= 1 exactly when the vector is Within the
// requirement (for positive requirements).
func TestMaxRatioConsistentWithWithin(t *testing.T) {
	f := func(d, l, rd, rl uint16) bool {
		v := Vector{Delay: float64(d), LossCost: float64(l) / 1000}
		req := Vector{Delay: float64(rd) + 1, LossCost: float64(rl)/1000 + 0.001}
		return v.Within(req) == (v.MaxRatio(req) <= 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResourcesArithmetic(t *testing.T) {
	r := Resources{CPU: 10, Memory: 100}
	s := Resources{CPU: 4, Memory: 60}
	if got := r.Add(s); got != (Resources{CPU: 14, Memory: 160}) {
		t.Errorf("Add = %v", got)
	}
	if got := r.Sub(s); got != (Resources{CPU: 6, Memory: 40}) {
		t.Errorf("Sub = %v", got)
	}
	if got := r.Scale(0.5); got != (Resources{CPU: 5, Memory: 50}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestResourcesCovers(t *testing.T) {
	tests := []struct {
		name string
		have Resources
		need Resources
		want bool
	}{
		{name: "plenty", have: Resources{CPU: 10, Memory: 100}, need: Resources{CPU: 5, Memory: 50}, want: true},
		{name: "exact", have: Resources{CPU: 5, Memory: 50}, need: Resources{CPU: 5, Memory: 50}, want: true},
		{name: "cpu short", have: Resources{CPU: 4, Memory: 100}, need: Resources{CPU: 5, Memory: 50}, want: false},
		{name: "memory short", have: Resources{CPU: 10, Memory: 40}, need: Resources{CPU: 5, Memory: 50}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.have.Covers(tt.need); got != tt.want {
				t.Errorf("Covers = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCongestionTermWorkedExample(t *testing.T) {
	// The paper's Figure 4 example: a component needing 20MB memory on a
	// node with 30MB residual contributes 20/(30+20) = 0.4.
	req := Resources{Memory: 20}
	residual := Resources{Memory: 30}
	if got := CongestionTerm(req, residual); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("CongestionTerm = %v, want 0.4", got)
	}
}

func TestCongestionTermInfeasible(t *testing.T) {
	got := CongestionTerm(Resources{CPU: 1}, Resources{CPU: -1})
	if !math.IsInf(got, 1) {
		t.Errorf("CongestionTerm with negative residual = %v, want +Inf", got)
	}
}

func TestCongestionTermZeroRequirement(t *testing.T) {
	if got := CongestionTerm(Resources{}, Resources{CPU: -5, Memory: -5}); got != 0 {
		t.Errorf("CongestionTerm with zero requirement = %v, want 0", got)
	}
}

// TestCongestionTermMonotone: phi must prefer larger residuals — the term
// strictly decreases as residual capacity grows (load balancing goal).
func TestCongestionTermMonotone(t *testing.T) {
	f := func(r1, r2 uint8) bool {
		lo, hi := float64(r1), float64(r1)+float64(r2)+1
		req := Resources{CPU: 10}
		tLo := CongestionTerm(req, Resources{CPU: lo})
		tHi := CongestionTerm(req, Resources{CPU: hi})
		return tHi < tLo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBandwidthCongestionTerm(t *testing.T) {
	// Figure 4: 200kbps demand on a link with 300kbps residual.
	if got := BandwidthCongestionTerm(200, 300); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("BandwidthCongestionTerm = %v, want 0.4", got)
	}
	// Co-located components: infinite residual bandwidth contributes 0
	// (footnote 8).
	if got := BandwidthCongestionTerm(200, math.Inf(1)); got != 0 {
		t.Errorf("co-located term = %v, want 0", got)
	}
	if got := BandwidthCongestionTerm(200, -1); !math.IsInf(got, 1) {
		t.Errorf("infeasible term = %v, want +Inf", got)
	}
}

func TestVectorString(t *testing.T) {
	s := Vector{Delay: 12.5, LossCost: LossCost(0.02)}.String()
	if s != "qos(delay=12.50ms loss=0.0200)" {
		t.Errorf("String = %q", s)
	}
}

func TestResourcesString(t *testing.T) {
	s := Resources{CPU: 2, Memory: 64}.String()
	if s != "res(cpu=2.0 mem=64.0MB)" {
		t.Errorf("String = %q", s)
	}
}

// specialValues are the float64 inputs on which a builtin max and
// math.Max could disagree if either were not IEEE-754's maximum: NaN,
// both zeros, both infinities, and two ordinary numbers.
var specialValues = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1), -1, 0.5}

// sameFloat reports whether a and b are the same value: both NaN, or the
// same bits (which tells -0 from +0).
func sameFloat(a, b float64) bool {
	return math.IsNaN(a) && math.IsNaN(b) || math.Float64bits(a) == math.Float64bits(b)
}

// TestMaxRatioSpecialValues pins MaxRatio, which takes the builtin max of
// the two ratios, to the math.Max form on every pair of special values.
func TestMaxRatioSpecialValues(t *testing.T) {
	req := Vector{Delay: 1, LossCost: 1}
	for _, d := range specialValues {
		for _, l := range specialValues {
			v := Vector{Delay: d, LossCost: l}
			if got, want := v.MaxRatio(req), math.Max(ratio(d, 1), ratio(l, 1)); !sameFloat(got, want) {
				t.Errorf("MaxRatio(%v, %v) = %v (%#x), math.Max gives %v (%#x)", d, l, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
