package tuning

import (
	"math"
	"testing"
)

func TestHoltTracksLinearTrend(t *testing.T) {
	h := NewHolt()
	if !math.IsNaN(h.Forecast(1)) {
		t.Fatal("unprimed forecast not NaN")
	}
	// Feed y = 2 + 0.5*t; after convergence the one-step forecast must
	// land near the true next value.
	for i := 0; i < 50; i++ {
		h.Observe(2 + 0.5*float64(i))
	}
	want := 2 + 0.5*50
	if got := h.Forecast(1); math.Abs(got-want) > 0.1 {
		t.Fatalf("Forecast(1) = %v, want ~%v", got, want)
	}
	want3 := 2 + 0.5*52
	if got := h.Forecast(3); math.Abs(got-want3) > 0.3 {
		t.Fatalf("Forecast(3) = %v, want ~%v", got, want3)
	}
}

func TestHoltConstantSeries(t *testing.T) {
	h := NewHolt()
	for i := 0; i < 10; i++ {
		h.Observe(7)
	}
	if got := h.Forecast(5); math.Abs(got-7) > 1e-9 {
		t.Fatalf("constant series forecast = %v, want 7", got)
	}
}

func TestHoltIgnoresNonFinite(t *testing.T) {
	h := NewHolt()
	h.Observe(3)
	h.Observe(math.Inf(1))
	h.Observe(math.NaN())
	// An unprimed forecaster forecasts NaN: 3 also shows it stayed primed.
	if got := h.Forecast(0); got != 3 {
		t.Fatalf("level after non-finite feeds = %v, want 3", got)
	}
}
