// Package qos implements the quality-of-service and resource algebra used
// throughout the composition system.
//
// The paper (§2.1, footnote 3) assumes QoS metrics are additive and
// minimum-optimal: smaller accumulated values are better, and the QoS of a
// composed application is the sum of the QoS of its constituent components
// and virtual links. Non-additive metrics such as loss rate are made
// additive with a logarithm transform; this package stores loss internally
// as the additive "loss cost" -ln(1 - p) so that vector addition is the
// single aggregation operation every caller needs.
package qos

import (
	"fmt"
	"math"
)

// Vector is an additive, minimum-optimal QoS vector. Both fields
// accumulate with simple addition along a composition.
type Vector struct {
	// Delay is processing or transmission delay in milliseconds.
	Delay float64
	// LossCost is the additive transform -ln(1-p) of a loss probability p.
	LossCost float64
}

// LossCost converts a loss probability p into its additive cost -ln(1-p).
func LossCost(p float64) float64 {
	if p >= 1 {
		return math.Inf(1)
	}
	if p <= 0 {
		return 0
	}
	return -math.Log1p(-p)
}

// LossProb converts an additive loss cost back into a probability.
func LossProb(cost float64) float64 {
	if math.IsInf(cost, 1) {
		return 1
	}
	if cost <= 0 {
		return 0
	}
	return -math.Expm1(-cost)
}

// Add returns the aggregation of v and w (component-wise sum).
func (v Vector) Add(w Vector) Vector {
	return Vector{Delay: v.Delay + w.Delay, LossCost: v.LossCost + w.LossCost}
}

// Sub returns v - w component-wise. It is the inverse of Add and is used
// when removing a hop's contribution from an accumulated vector.
func (v Vector) Sub(w Vector) Vector {
	return Vector{Delay: v.Delay - w.Delay, LossCost: v.LossCost - w.LossCost}
}

// Within reports whether v satisfies the requirement req on every metric
// (Eq. 3 of the paper): each accumulated value must not exceed the bound.
func (v Vector) Within(req Vector) bool {
	return v.Delay <= req.Delay && v.LossCost <= req.LossCost
}

// MaxRatio returns the worst-case ratio of v's metrics to the requirement
// req. It is the risk function core of Eq. 9: values near (or above) 1
// mean the composition is close to (or past) violating a constraint.
// Metrics with a non-positive requirement are skipped unless the value
// itself is positive, in which case the ratio is +Inf.
func (v Vector) MaxRatio(req Vector) float64 {
	d, l := ratio(v.Delay, req.Delay), ratio(v.LossCost, req.LossCost)
	if d > math.MaxFloat64 || l > math.MaxFloat64 {
		// math.Max lets +Inf beat NaN (an unreachable route against an
		// infinite requirement is Inf/Inf); the builtin max does not.
		return math.Inf(1)
	}
	return max(d, l)
}

func ratio(val, bound float64) float64 {
	if bound > 0 {
		return val / bound
	}
	if val > 0 {
		return math.Inf(1)
	}
	return 0
}

// String renders the vector with loss shown as a probability for humans.
func (v Vector) String() string {
	return fmt.Sprintf("qos(delay=%.2fms loss=%.4f)", v.Delay, LossProb(v.LossCost))
}

// Resources is an end-system resource vector [ra_1 ... ra_n] (§2.1). The
// paper's experiments use CPU and memory; both are modelled as fluid
// quantities (CPU in abstract units, memory in megabytes).
type Resources struct {
	CPU    float64
	Memory float64
}

// Add returns r + s component-wise.
func (r Resources) Add(s Resources) Resources {
	return Resources{CPU: r.CPU + s.CPU, Memory: r.Memory + s.Memory}
}

// Sub returns r - s component-wise.
func (r Resources) Sub(s Resources) Resources {
	return Resources{CPU: r.CPU - s.CPU, Memory: r.Memory - s.Memory}
}

// Scale returns r with every component multiplied by f.
func (r Resources) Scale(f float64) Resources {
	return Resources{CPU: r.CPU * f, Memory: r.Memory * f}
}

// NonNegative reports whether every component of r is >= 0. It implements
// the residual-resource constraint of Eq. 4: residuals must not go
// negative when a component's requirement is subtracted.
func (r Resources) NonNegative() bool {
	return r.CPU >= 0 && r.Memory >= 0
}

// Covers reports whether r can supply the requirement req on every
// dimension, i.e. r - req stays non-negative.
func (r Resources) Covers(req Resources) bool {
	return r.Sub(req).NonNegative()
}

// CongestionTerm computes the per-node summand of the congestion
// aggregation metric phi (Eq. 1): sum_k r_k / (rr_k + r_k), where req is
// the resource requirement r_k and residual is the post-placement residual
// rr_k. Dimensions with a zero requirement contribute nothing. A negative
// residual yields +Inf so infeasible placements sort last.
func CongestionTerm(req, residual Resources) float64 {
	return congestionFraction(req.CPU, residual.CPU) +
		congestionFraction(req.Memory, residual.Memory)
}

// BandwidthCongestionTerm computes the per-virtual-link summand of phi
// (Eq. 1): b^l / (rb^l + b^l). Links between co-located components have
// infinite residual bandwidth, for which the term is defined as 0
// (footnote 8 of the paper).
func BandwidthCongestionTerm(req, residual float64) float64 {
	if math.IsInf(residual, 1) {
		return 0
	}
	return congestionFraction(req, residual)
}

func congestionFraction(req, residual float64) float64 {
	if req <= 0 {
		return 0
	}
	if residual < 0 {
		return math.Inf(1)
	}
	return req / (residual + req)
}

// String renders the resource vector.
func (r Resources) String() string {
	return fmt.Sprintf("res(cpu=%.1f mem=%.1fMB)", r.CPU, r.Memory)
}
