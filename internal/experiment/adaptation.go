package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// AdaptationConfig parameterises one adaptation-figure cell: a live
// runtime cluster on the virtual clock subjected to a deterministic
// schedule of congestion surges, with the re-composition controller on
// or off.
type AdaptationConfig struct {
	// Seed drives the substrate and surge schedule.
	Seed int64
	// Sessions is how many concurrent sessions the run holds. Zero
	// means 4.
	Sessions int
	// Surges is how many congestion episodes the schedule plays. Zero
	// means 4.
	Surges int
	// SurgeTicks is how many monitor ticks each surge lasts before its
	// load is released. Zero means 6.
	SurgeTicks int
	// Adapt turns the re-composition controller on.
	Adapt bool
	// Predictive additionally enables the Holt forecast mode (implies
	// the controller is on).
	Predictive bool
}

// AdaptationResult measures one cell of the adaptation figure.
type AdaptationResult struct {
	// Episodes is how many times a session crossed its phi bound.
	Episodes int64
	// Recovered is how many episodes ended back in compliance.
	Recovered int64
	// ViolationTicks is the total session-ticks spent in violation —
	// the figure's headline: adaptation shrinks it.
	ViolationTicks int64
	// MeanViolationTicks is ViolationTicks per episode.
	MeanViolationTicks float64
	// Migrations counts successful make-before-break flips.
	Migrations int64
	// Preemptive counts forecast-triggered flips (predictive mode).
	Preemptive int64
	// Abandoned counts violation episodes the controller gave up on
	// after its retry budget.
	Abandoned int64
}

// adaptDriftTolerance matches the harness adaptation scenarios: act at
// 50% over the admission-time bound.
const adaptDriftTolerance = 0.5

// RunAdaptation plays a deterministic surge schedule against a live
// runtime cluster and measures QoS-drift exposure. With Adapt off a
// bare drift monitor only observes (the baseline: violations persist
// until their surge ends); with Adapt on the controller re-composes
// drifting sessions make-before-break.
func RunAdaptation(cfg AdaptationConfig) (*AdaptationResult, error) {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 4
	}
	if cfg.Surges <= 0 {
		cfg.Surges = 4
	}
	if cfg.SurgeTicks <= 0 {
		cfg.SurgeTicks = 6
	}
	if cfg.Predictive {
		cfg.Adapt = true
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	wrng := rand.New(rand.NewSource(seed ^ 0xad47))

	bed, err := harness.NewAdaptBed(seed)
	if err != nil {
		return nil, err
	}
	c, vc, reg := bed.Cluster, bed.Clock, bed.Registry
	defer c.Shutdown()

	// Both modes run the same monitor cadence; only the consequences of
	// a drift event differ.
	var tickOnce func()
	if cfg.Adapt {
		ctrl, err := c.EnableAdaptation(runtime.AdaptConfig{
			Period:       time.Second,
			Tolerance:    adaptDriftTolerance,
			MaxRetries:   3,
			RetryBackoff: 2 * time.Second,
			Predictive:   cfg.Predictive,
		})
		if err != nil {
			return nil, err
		}
		defer ctrl.Stop()
		ctrl.Start()
		tickOnce = func() { vc.Advance(time.Second) }
	} else {
		monitor := obs.NewDriftMonitor(obs.DriftConfig{
			Observed:  reg.GaugeVec("session.phi", "session"),
			Required:  reg.GaugeVec("session.phi.required", "session"),
			Tolerance: adaptDriftTolerance,
			Registry:  reg,
		})
		tickOnce = func() {
			vc.Advance(time.Second)
			c.RefreshSessionGauges()
			monitor.Tick()
		}
	}

	res := &AdaptationResult{}
	tick := func() error {
		tickOnce()
		if err := c.CheckInvariants(); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		res.ViolationTicks += int64(reg.Snapshot().Gauges["obs.drift.sessions_exceeded"])
		return nil
	}

	// Admit the session population.
	for i := 0; i < cfg.Sessions; i++ {
		if _, err := bed.Admit(wrng); err != nil {
			return nil, fmt.Errorf("seed %d: admit %d: %w", seed, i, err)
		}
	}
	for i := 0; i < 2; i++ { // settle the baseline
		if err := tick(); err != nil {
			return res, err
		}
	}

	// The surge schedule: squeeze a random live session's nodes for
	// SurgeTicks, release, let it drain. Drawn from wrng before any mode
	// branch consumes randomness, so off/on runs see identical surges.
	for ep := 0; ep < cfg.Surges; ep++ {
		sessions := c.AuditSessions()
		if len(sessions) == 0 {
			break
		}
		victim := sessions[wrng.Intn(len(sessions))]
		owner := int64(-(ep + 1))
		if err := bed.Surge(owner, victim.ID); err != nil {
			return res, fmt.Errorf("seed %d: surge %d: %w", seed, ep, err)
		}
		for i := 0; i < cfg.SurgeTicks; i++ {
			if err := tick(); err != nil {
				return res, err
			}
		}
		c.ReleaseLoad(owner)
		for i := 0; i < 3; i++ { // drain: violations recover
			if err := tick(); err != nil {
				return res, err
			}
		}
	}

	s := reg.Snapshot()
	res.Episodes = s.Counters["obs.drift.exceeded_total"]
	res.Recovered = s.Counters["obs.drift.recovered_total"]
	res.Migrations = s.Counters["runtime.migrations"]
	res.Preemptive = s.Counters["adapt.preemptive_migrations"]
	res.Abandoned = s.Counters["adapt.abandoned"]
	if res.Episodes > 0 {
		res.MeanViolationTicks = float64(res.ViolationTicks) / float64(res.Episodes)
	}
	return res, nil
}

// AdaptationSweep is the adaptation figure: the same seeded surge
// schedule with the re-composition controller off, on, and on with
// Holt forecasting — violation exposure versus migrations spent. Not a
// paper figure; it extends §4 with the "act on drift" plane.
func AdaptationSweep(o Options) ([]*Table, error) {
	o = o.normalize()
	tbl := &Table{
		Title: "Adaptation: QoS-drift exposure with re-composition off vs on (N=8, 4 sessions, 4 surges)",
		Header: []string{"mode", "episodes", "violation ticks", "mean ticks/episode",
			"migrations", "preemptive", "recovered", "abandoned"},
	}
	modes := []struct {
		name              string
		adapt, predictive bool
	}{
		{"monitor only", false, false},
		{"recompose", true, false},
		{"recompose+forecast", true, true},
	}
	for _, m := range modes {
		res, err := RunAdaptation(AdaptationConfig{Seed: o.Seed, Adapt: m.adapt, Predictive: m.predictive})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(
			m.name,
			fmt.Sprintf("%d", res.Episodes),
			fmt.Sprintf("%d", res.ViolationTicks),
			fmt.Sprintf("%.1f", res.MeanViolationTicks),
			fmt.Sprintf("%d", res.Migrations),
			fmt.Sprintf("%d", res.Preemptive),
			fmt.Sprintf("%d", res.Recovered),
			fmt.Sprintf("%d", res.Abandoned),
		)
	}
	return []*Table{tbl}, nil
}
