// Package tuning implements the probing ratio tuning scheme of §3.4: ACP
// holds a target composition success rate with the minimal probing ratio
// by on-line profiling of the (non-linear, condition-dependent) mapping
// from probing ratio to success rate, re-profiling whenever the measured
// rate drifts from the profile's prediction by more than a threshold.
package tuning

import (
	"fmt"
	"math"
)

// Profiler estimates the composition success rate the system would
// achieve at the given probing ratio under current conditions. The
// experiment harness implements it by trace-replaying the last sampling
// period's requests against the current system state (§3.4: "realistic
// workload ... trace replay of actual workloads in the last sampling
// period").
type Profiler func(alpha float64) float64

// Config parameterises the tuner.
type Config struct {
	// Target is the composition success rate to maintain (e.g. 0.9).
	Target float64
	// ErrorThreshold is delta: re-profiling triggers when the measured
	// success rate differs from the prediction by more than this (paper
	// example: 2%).
	ErrorThreshold float64
}

// The profiling sweep of §3.4 starts at baseRatio and steps by step
// (paper example: 0.1 each) up to maxRatio, which bounds probing
// overhead. margin is the hysteresis band: the tuner picks the smallest
// ratio predicted to reach Target + margin, so window noise does not
// cause it to flap between adjacent ratios. If no profiled ratio clears
// the band, the plain target is used.
const baseRatio, step, maxRatio, margin float64 = 0.1, 0.1, 1.0, 0.02

// DefaultConfig mirrors the paper's §3.4 example values with a 90%
// target, the setting of the Figure 8(b) experiment.
func DefaultConfig() Config {
	return Config{
		Target:         0.90,
		ErrorThreshold: 0.02,
	}
}

func (c *Config) validate() error {
	if c.Target <= 0 || c.Target+margin > 1 {
		return fmt.Errorf("tuning: Target %v out of (0, %v]", c.Target, 1-margin)
	}
	if c.ErrorThreshold <= 0 || c.ErrorThreshold >= 1 {
		return fmt.Errorf("tuning: ErrorThreshold %v out of (0, 1)", c.ErrorThreshold)
	}
	return nil
}

type profilePoint struct {
	alpha   float64
	success float64
}

// Tuner adapts the probing ratio each sampling period.
type Tuner struct {
	cfg      Config
	profiler Profiler
	profile  []profilePoint
	ratio    float64
	profiled bool
	reprofs  int
}

// NewTuner builds a tuner starting at the base probing ratio. The first
// Observe call profiles unconditionally.
func NewTuner(cfg Config, profiler Profiler) (*Tuner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if profiler == nil {
		return nil, fmt.Errorf("tuning: nil profiler")
	}
	return &Tuner{cfg: cfg, profiler: profiler, ratio: baseRatio}, nil
}

// Ratio returns the probing ratio currently in force.
func (t *Tuner) Ratio() float64 { return t.ratio }

// Reprofiles returns how many times on-line profiling has run.
func (t *Tuner) Reprofiles() int { return t.reprofs }

// Predict returns the profiled success rate at alpha, interpolating
// linearly between profile points. Without a profile it returns NaN.
func (t *Tuner) Predict(alpha float64) float64 {
	if len(t.profile) == 0 {
		return math.NaN()
	}
	if alpha <= t.profile[0].alpha {
		return t.profile[0].success
	}
	for i := 1; i < len(t.profile); i++ {
		if alpha <= t.profile[i].alpha {
			lo, hi := t.profile[i-1], t.profile[i]
			frac := (alpha - lo.alpha) / (hi.alpha - lo.alpha)
			return lo.success + frac*(hi.success-lo.success)
		}
	}
	return t.profile[len(t.profile)-1].success
}

// Observe feeds the measured success rate of the sampling period that
// just ended and retunes: when the prediction error exceeds the
// threshold (or no profile exists yet), the profiler is rerun and the
// minimal ratio predicted to reach the target is adopted. It returns
// true when the ratio changed.
func (t *Tuner) Observe(measured float64) bool {
	if !t.profiled || math.Abs(measured-t.Predict(t.ratio)) > t.cfg.ErrorThreshold {
		t.reprofile()
	}
	old := t.ratio
	t.ratio = t.minimalRatio()
	return t.ratio != old
}

// reprofile sweeps alpha from the base ratio upward until the success
// rate saturates (stops improving meaningfully) or the cap is reached,
// and records the monotone envelope of the measurements. The probing
// ratio tuning space is small (§3.4: success "quickly reaches the
// saturation point"), so the sweep is a handful of profiler calls.
func (t *Tuner) reprofile() {
	t.profile = t.profile[:0]
	t.reprofs++
	best := 0.0
	for alpha := baseRatio; ; alpha += step {
		if alpha > maxRatio {
			break
		}
		s := t.profiler(alpha)
		if s < best {
			s = best // success is non-decreasing in alpha; keep envelope
		}
		t.profile = append(t.profile, profilePoint{alpha: alpha, success: s})
		// Saturation: target (plus hysteresis band) reached, or no
		// meaningful improvement while past the halfway point of the
		// sweep.
		if s >= t.cfg.Target+margin {
			break
		}
		if len(t.profile) >= 2 && s-best < 0.005 && alpha > (baseRatio+maxRatio)/2 {
			break
		}
		best = math.Max(best, s)
	}
	t.profiled = true
}

// minimalRatio returns the smallest profiled ratio whose predicted
// success clears the target plus the hysteresis margin (falling back to
// the bare target); if the target is unreachable it returns the ratio of
// the best profiled point (the saturation point), honouring the paper's
// rule that ACP stops increasing the ratio once the overhead limit —
// here the saturation of the profile — is reached.
func (t *Tuner) minimalRatio() float64 {
	if len(t.profile) == 0 {
		return t.ratio
	}
	for _, p := range t.profile {
		if p.success >= t.cfg.Target+margin {
			return p.alpha
		}
	}
	for _, p := range t.profile {
		if p.success >= t.cfg.Target {
			return p.alpha
		}
	}
	best := t.profile[0]
	for _, p := range t.profile[1:] {
		if p.success > best.success {
			best = p
		}
	}
	return best.alpha
}
