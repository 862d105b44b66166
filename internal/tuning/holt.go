package tuning

import "math"

// The smoothing factors track session-phi drift quickly (half-life of a
// couple of monitor ticks) while damping single-tick noise: holtAlpha
// smooths the level and holtBeta the trend. Typed, so 1-holtBeta rounds
// as a float64 subtraction does.
const holtAlpha, holtBeta float64 = 0.5, 0.3

// Holt is a Holt (double exponential smoothing) forecaster over a
// scalar series: it tracks a smoothed level and linear trend and
// extrapolates them, which is enough look-ahead for a re-composition
// controller to act on steadily rising congestion before the QoS bound
// is actually crossed. Not safe for concurrent use.
type Holt struct {
	level  float64
	trend  float64
	primed bool
}

// NewHolt builds a forecaster; the first observation primes the level
// with zero trend.
func NewHolt() *Holt { return &Holt{} }

// Observe feeds the next value of the series. Non-finite values are
// ignored so a transient Inf residual cannot poison the state.
func (h *Holt) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if !h.primed {
		h.level, h.trend, h.primed = v, 0, true
		return
	}
	prev := h.level
	h.level = holtAlpha*v + (1-holtAlpha)*(h.level+h.trend)
	h.trend = holtBeta*(h.level-prev) + (1-holtBeta)*h.trend
}

// Forecast extrapolates the series the given number of steps ahead of
// the last observation (0 returns the smoothed level). Before any
// observation it returns NaN.
func (h *Holt) Forecast(steps int) float64 {
	if !h.primed {
		return math.NaN()
	}
	return h.level + float64(steps)*h.trend
}

// Primed reports whether at least one observation has been fed.
func (h *Holt) Primed() bool { return h.primed }
