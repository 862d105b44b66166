package runtime

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/harness/clock"
	"repro/internal/obs"
	"repro/internal/tuning"
)

// AdaptConfig tunes the re-composition controller.
type AdaptConfig struct {
	// Period is the monitoring tick interval; default 1s.
	Period time.Duration
	// Tolerance is the fractional headroom a session's observed phi gets
	// over its admission-time bound before the controller acts, and the
	// headroom a replacement composition's phi is allowed. Zero means
	// any excess triggers.
	Tolerance float64
	// MaxRetries bounds re-composition attempts per violation episode;
	// past it the episode is abandoned (counted) until the session
	// recovers or re-enters violation. Default 3.
	MaxRetries int
	// RetryBackoff is the delay before the first retry after a failed
	// attempt, doubling each retry. Default 2x Period.
	RetryBackoff time.Duration
	// Predictive enables acting on a Holt forecast of each session's phi
	// before the bound is actually crossed.
	Predictive bool
	// Holt smooths the per-session forecasts; zero value means defaults.
	Holt tuning.HoltConfig
	// ForecastSteps is how many ticks ahead predictive mode looks;
	// default 2.
	ForecastSteps int
}

// retryState is one session's in-flight violation episode.
type retryState struct {
	attempts int
	timer    clock.Timer
}

// AdaptController is the adaptation plane: it periodically refreshes
// every session's observed congestion, watches for drift past the
// admission-time phi bound via an obs.DriftMonitor, and answers each
// violation by re-composing the session make-before-break
// (Cluster.Recompose). When no better composition exists it backs off
// and retries on the harness clock, abandoning the episode after
// MaxRetries. In predictive mode a Holt forecaster per session triggers
// re-composition on projected violations before they happen.
type AdaptController struct {
	c       *Cluster
	cfg     AdaptConfig
	clk     clock.Clock
	monitor *obs.DriftMonitor

	migrations *obs.Counter // successful drift-triggered migrations
	preemptive *obs.Counter // successful forecast-triggered migrations
	failures   *obs.Counter // attempts that found nothing better
	abandonedC *obs.Counter // episodes dropped after MaxRetries

	mu          sync.Mutex
	retries     map[SessionID]*retryState
	forecasters map[SessionID]*tuning.Holt
	timer       clock.Timer
	stopped     bool
}

// EnableAdaptation builds the cluster's re-composition controller and
// installs its tolerance as the Recompose acceptance headroom. Call
// Start on the returned controller to begin ticking, or Step to drive
// it manually (deterministic harness). Requires a Registry (the drift
// monitor reads the session gauge vectors).
func (c *Cluster) EnableAdaptation(cfg AdaptConfig) (*AdaptController, error) {
	if c.cfg.Registry == nil {
		return nil, errors.New("runtime: adaptation requires a Registry")
	}
	if cfg.Tolerance < 0 {
		return nil, fmt.Errorf("runtime: negative adaptation tolerance %v", cfg.Tolerance)
	}
	if cfg.Period <= 0 {
		cfg.Period = time.Second
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 2 * cfg.Period
	}
	if cfg.ForecastSteps <= 0 {
		cfg.ForecastSteps = 2
	}
	if cfg.Holt == (tuning.HoltConfig{}) {
		cfg.Holt = tuning.DefaultHoltConfig()
	} else if _, err := tuning.NewHolt(cfg.Holt); err != nil {
		return nil, err
	}

	c.mu.Lock()
	c.adaptTol = cfg.Tolerance
	c.mu.Unlock()

	a := &AdaptController{
		c:           c,
		cfg:         cfg,
		clk:         c.clock,
		migrations:  c.cfg.Registry.Counter("adapt.migrations"),
		preemptive:  c.cfg.Registry.Counter("adapt.preemptive_migrations"),
		failures:    c.cfg.Registry.Counter("adapt.recompose_failures"),
		abandonedC:  c.cfg.Registry.Counter("adapt.abandoned"),
		retries:     make(map[SessionID]*retryState),
		forecasters: make(map[SessionID]*tuning.Holt),
	}
	a.monitor = obs.NewDriftMonitor(obs.DriftConfig{
		Observed:  c.sessionPhi,
		Required:  c.sessionPhiReq,
		Tolerance: cfg.Tolerance,
		Registry:  c.cfg.Registry,
		Tracer:    c.cfg.Tracer,
		OnDrift:   a.onDrift,
	})
	return a, nil
}

// Step runs one adaptation tick synchronously: refresh observed phi,
// feed the forecasters (predictive mode), then let the drift monitor
// report transitions — its OnDrift callback drives re-composition.
func (a *AdaptController) Step() {
	a.c.refreshSessionGauges()
	if a.cfg.Predictive {
		a.forecastStep()
	}
	a.monitor.Tick()
}

// Start begins ticking every Period on the cluster clock. Under a
// Virtual clock ticks run synchronously on the advancing goroutine, so
// simulated adaptation schedules are deterministic.
func (a *AdaptController) Start() {
	a.mu.Lock()
	if a.timer != nil || a.stopped {
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()
	a.arm()
}

func (a *AdaptController) arm() {
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return
	}
	a.timer = a.clk.AfterFunc(a.cfg.Period, func() {
		a.Step()
		a.arm()
	})
	a.mu.Unlock()
}

// Stop cancels future ticks and every pending retry. Idempotent.
func (a *AdaptController) Stop() {
	a.mu.Lock()
	a.stopped = true
	t := a.timer
	a.timer = nil
	ids := make([]SessionID, 0, len(a.retries))
	for id := range a.retries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	pending := make([]*retryState, 0, len(ids))
	for _, id := range ids {
		pending = append(pending, a.retries[id])
		delete(a.retries, id)
	}
	a.mu.Unlock()
	if t != nil {
		t.Stop()
	}
	for _, rs := range pending {
		if rs.timer != nil {
			rs.timer.Stop()
		}
	}
}

// onDrift is the monitor callback: violations trigger an attempt,
// recoveries clear any pending retry episode.
func (a *AdaptController) onDrift(ev obs.DriftEvent) {
	id, err := strconv.ParseInt(ev.Session, 10, 64)
	if err != nil {
		return // not a session gauge label
	}
	if ev.Exceeded {
		a.attempt(SessionID(id), a.migrations)
	} else {
		a.clearRetry(SessionID(id))
	}
}

// attempt re-composes the session once, crediting onSuccess, and on
// ErrNoBetterComposition schedules a backed-off retry. Reports whether
// the migration happened.
func (a *AdaptController) attempt(id SessionID, onSuccess *obs.Counter) bool {
	err := a.c.Recompose(id)
	switch {
	case err == nil:
		onSuccess.Inc()
		a.clearRetry(id)
		return true
	case errors.Is(err, ErrUnknownSession):
		a.clearRetry(id) // closed between tick and attempt
		return false
	default:
		// No better composition (or a racing migration failed feasibility):
		// the session keeps its current composition; back off and retry.
		a.failures.Inc()
		a.scheduleRetry(id)
		return false
	}
}

// scheduleRetry arms the episode's next attempt with doubling backoff,
// abandoning the episode past MaxRetries.
func (a *AdaptController) scheduleRetry(id SessionID) {
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return
	}
	rs := a.retries[id]
	if rs == nil {
		rs = &retryState{}
		a.retries[id] = rs
	}
	rs.attempts++
	if rs.attempts > a.cfg.MaxRetries {
		delete(a.retries, id)
		a.mu.Unlock()
		a.abandonedC.Inc()
		return
	}
	delay := a.cfg.RetryBackoff << (rs.attempts - 1)
	rs.timer = a.clk.AfterFunc(delay, func() { a.retry(id) })
	a.mu.Unlock()
}

// retry re-checks the session before attempting again: if it recovered
// on its own (or closed) the episode simply ends — the monitor reports
// the recovery on its next tick.
func (a *AdaptController) retry(id SessionID) {
	a.mu.Lock()
	stopped := a.stopped
	a.mu.Unlock()
	if stopped {
		return
	}
	if !a.inViolation(id) {
		a.clearRetry(id)
		return
	}
	a.attempt(id, a.migrations)
}

// inViolation recomputes the session's current standing directly from
// the ledger (not the gauges, which may be a tick stale).
func (a *AdaptController) inViolation(id SessionID) bool {
	for _, s := range a.c.AuditSessions() {
		if s.ID == id {
			return s.ObservedPhi > s.RequiredPhi*(1+a.cfg.Tolerance)
		}
	}
	return false
}

func (a *AdaptController) clearRetry(id SessionID) {
	a.mu.Lock()
	rs := a.retries[id]
	delete(a.retries, id)
	a.mu.Unlock()
	if rs != nil && rs.timer != nil {
		rs.timer.Stop()
	}
}

// forecastStep feeds each live session's observed phi to its Holt
// forecaster and pre-emptively re-composes sessions whose projected phi
// crosses the bound while their current phi is still compliant (actual
// violations are the monitor's job, with retry semantics).
func (a *AdaptController) forecastStep() {
	audits := a.c.AuditSessions()
	live := make(map[SessionID]bool, len(audits))
	for _, s := range audits {
		live[s.ID] = true
		a.mu.Lock()
		h := a.forecasters[s.ID]
		if h == nil {
			h, _ = tuning.NewHolt(a.cfg.Holt) // cfg validated at Enable
			a.forecasters[s.ID] = h
		}
		a.mu.Unlock()
		h.Observe(s.ObservedPhi)
		bound := s.RequiredPhi * (1 + a.cfg.Tolerance)
		if s.ObservedPhi <= bound && h.Forecast(a.cfg.ForecastSteps) > bound {
			if a.attempt(s.ID, a.preemptive) {
				// Re-prime on the new composition: the old trend no
				// longer describes this session.
				a.mu.Lock()
				delete(a.forecasters, s.ID)
				a.mu.Unlock()
			}
		}
	}
	a.mu.Lock()
	for id := range a.forecasters {
		if !live[id] {
			delete(a.forecasters, id)
		}
	}
	a.mu.Unlock()
}
