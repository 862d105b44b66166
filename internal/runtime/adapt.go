package runtime

import (
	"errors"
	"fmt"
	"sort"
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
}

// forecastSteps is how many ticks ahead predictive mode looks.
const forecastSteps = 2

// retryState is one session's in-flight violation episode.
type retryState struct {
	attempts int
	timer    clock.Timer
}

// AdaptController is the adaptation plane: it periodically refreshes
// every session's observed congestion, compares it with the
// admission-time phi bound in a drift pass over the session table, and
// answers each violation by re-composing the session make-before-break
// (Cluster.Recompose). When no better composition exists it backs off
// and retries on the harness clock, abandoning the episode after
// MaxRetries. In predictive mode a Holt forecaster per session triggers
// re-composition on projected violations before they happen.
type AdaptController struct {
	c   *Cluster
	cfg AdaptConfig
	clk clock.Clock

	migrations *obs.Counter // successful drift-triggered migrations
	preemptive *obs.Counter // successful forecast-triggered migrations
	failures   *obs.Counter // attempts that found nothing better
	abandonedC *obs.Counter // episodes dropped after MaxRetries

	// The drift pass's instruments. Every episode ends in exactly one of
	// recovered, forgotten (closed mid-violation) or still exceeded:
	// exceeded == recovered + forgotten + sessionsExceeded.
	ticks            *obs.Counter
	exceeded         *obs.Counter
	recovered        *obs.Counter
	forgotten        *obs.Counter
	sessionsExceeded *obs.Gauge
	tracer           *obs.Tracer

	mu          sync.Mutex
	retries     map[SessionID]*retryState
	forecasters map[SessionID]*tuning.Holt
	// pass numbers the drift passes; violating holds every session in
	// violation with the pass that last saw it. guarded by mu
	pass      uint64
	violating map[SessionID]uint64
	timer     clock.Timer
	stopped   bool
}

// EnableAdaptation builds the cluster's re-composition controller and
// installs its tolerance as the Recompose acceptance headroom. Call
// Start on the returned controller to begin ticking, or Step to drive
// it manually (deterministic harness). The controller's instruments are
// the cluster's Registry's, and inert without one.
func (c *Cluster) EnableAdaptation(cfg AdaptConfig) (*AdaptController, error) {
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

	c.mu.Lock()
	c.adaptTol = cfg.Tolerance
	c.mu.Unlock()

	reg := c.cfg.Registry
	return &AdaptController{
		c:                c,
		cfg:              cfg,
		clk:              c.clock,
		migrations:       reg.Counter("adapt.migrations"),
		preemptive:       reg.Counter("adapt.preemptive_migrations"),
		failures:         reg.Counter("adapt.recompose_failures"),
		abandonedC:       reg.Counter("adapt.abandoned"),
		ticks:            reg.Counter("obs.drift.ticks"),
		exceeded:         reg.Counter("obs.drift.exceeded_total"),
		recovered:        reg.Counter("obs.drift.recovered_total"),
		forgotten:        reg.Counter("obs.drift.forgotten_total"),
		sessionsExceeded: reg.Gauge("obs.drift.sessions_exceeded"),
		tracer:           c.cfg.Tracer,
		retries:          make(map[SessionID]*retryState),
		forecasters:      make(map[SessionID]*tuning.Holt),
		violating:        make(map[SessionID]uint64),
	}, nil
}

// Step runs one adaptation tick synchronously: refresh observed phi,
// feed the forecasters (predictive mode), then run the drift pass, which
// drives re-composition.
func (a *AdaptController) Step() {
	a.c.refreshSessionGauges()
	if a.cfg.Predictive {
		a.forecastStep()
	}
	a.driftPass()
}

// driftPass compares every live session's phi with its admission-time
// bound and acts on each crossing: a session entering violation gets a
// re-composition attempt, one leaving it ends its retry episode. The
// state is level-triggered, so a drifting session crosses once, not every
// pass. All crossings are decided on one copy of the session table,
// taken before any attempt moves a session. Sessions are visited in the
// order of their decimal labels, the order the session gauge vectors
// export: an attempt's walk sees the ledger the attempts before it left,
// so another order makes other migrations (numeric ID order moves
// testdata/session_series_golden.txt). Cluster.mu is never taken while
// a.mu is held.
func (a *AdaptController) driftPass() {
	a.ticks.Inc()
	rows := a.c.sessionRows(nil)
	var crossed []sessionRow
	a.mu.Lock()
	a.pass++
	for _, r := range rows {
		_, was := a.violating[r.id]
		now := r.phi > a.bound(r.requiredPhi)
		if now {
			a.violating[r.id] = a.pass
		} else if was {
			delete(a.violating, r.id)
		}
		if now != was {
			crossed = append(crossed, r)
		}
	}
	forgotten := 0
	for id, seen := range a.violating {
		if seen != a.pass {
			// Closed while in violation: no recovery will ever come, so
			// the episode is accounted as forgotten.
			forgotten++
			delete(a.violating, id)
		}
	}
	violating := len(a.violating)
	a.mu.Unlock()

	if forgotten > 0 {
		a.forgotten.Add(int64(forgotten))
	}
	a.sessionsExceeded.Set(float64(violating))
	for _, r := range crossed {
		if r.phi > a.bound(r.requiredPhi) {
			a.exceeded.Inc()
			a.tracer.QoSDrift(r.labels[0], r.phi, r.requiredPhi, obs.ReasonDriftExceeded)
			a.attempt(r.id, a.migrations)
		} else {
			a.recovered.Inc()
			a.tracer.QoSDrift(r.labels[0], r.phi, r.requiredPhi, obs.ReasonDriftRecovered)
			a.clearRetry(r.id)
		}
	}
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
// abandoning the episode past MaxRetries. An episode holds at most one
// pending timer: a second failure before the retry fires (a forecast
// attempt, in predictive mode) replaces it rather than starting a second
// chain of attempts.
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
	if rs.timer != nil {
		rs.timer.Stop()
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
// on its own (or closed) the episode simply ends — the drift pass reports
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

// inViolation recomputes the session's current standing from the
// ledger (not its stored phi, which may be a tick stale).
func (a *AdaptController) inViolation(id SessionID) bool {
	c := a.c
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sessions[id]
	return ok && c.observedPhi(s) > a.bound(s.requiredPhi)
}

// bound is the phi past which a session admitted under required is in
// violation.
func (a *AdaptController) bound(required float64) float64 {
	return required * (1 + a.cfg.Tolerance)
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
// violations are the drift pass's job, with retry semantics).
func (a *AdaptController) forecastStep() {
	audits := a.c.AuditSessions()
	live := make(map[SessionID]bool, len(audits))
	for _, s := range audits {
		live[s.ID] = true
		a.mu.Lock()
		h := a.forecasters[s.ID]
		if h == nil {
			h, _ = tuning.NewHolt(tuning.DefaultHoltConfig())
			a.forecasters[s.ID] = h
		}
		a.mu.Unlock()
		h.Observe(s.ObservedPhi)
		bound := a.bound(s.RequiredPhi)
		if s.ObservedPhi <= bound && h.Forecast(forecastSteps) > bound {
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
