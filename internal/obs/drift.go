package obs

import (
	"strings"
	"sync"
)

// DriftEvent is one session's transition across its QoS requirement.
type DriftEvent struct {
	// Session joins the session's label values with "/".
	Session string
	// Observed is the session's observed gauge value at the tick.
	Observed float64
	// Required is the session's Eq. 3 requirement gauge value.
	Required float64
	// Exceeded is true when the session entered violation and false when
	// it recovered.
	Exceeded bool
}

// DriftConfig wires a DriftMonitor.
type DriftConfig struct {
	// Observed is the per-session observed-value gauge vector (e.g. the
	// engines' "session.phi.observed"). Its children define the session
	// set the monitor walks each tick.
	Observed *GaugeVec
	// Required is the matching per-session requirement gauge vector;
	// sessions with no requirement child are skipped.
	Required *GaugeVec
	// Tolerance is fractional headroom: a session drifts when
	// observed > required * (1 + Tolerance). Zero means any excess.
	Tolerance float64
	// Tracer receives qos.drift events on transitions; may be nil.
	Tracer *Tracer
	// Registry receives the monitor's own instruments ("obs.drift.*");
	// may be nil.
	Registry *Registry
	// OnDrift, when set, is called synchronously from Tick for every
	// transition — the hook a re-composition trigger plugs into.
	OnDrift func(DriftEvent)
}

// DriftMonitor compares, on every Tick, each live session's observed
// gauge against its Eq. 3 requirement gauge and reports transitions:
// a qos.drift trace event, "obs.drift.*" counters, and the OnDrift
// callback fire when a session crosses into violation or recovers.
// Level-triggered state is kept per session so a drifting session
// reports once, not every tick. The caller owns the cadence: the
// adaptation controller ticks it from its own clock-driven step.
type DriftMonitor struct {
	cfg DriftConfig

	ticks       *Counter
	exceededC   *Counter
	recoveredC  *Counter
	forgottenC  *Counter
	inViolation *Gauge

	mu sync.Mutex
	// tick numbers the Ticks. guarded by mu
	tick uint64
	// violating holds every session in violation, keyed by labelKey, with
	// the tick that last saw it. guarded by mu
	violating map[string]uint64
}

// NewDriftMonitor builds a monitor; call Tick to compare once.
func NewDriftMonitor(cfg DriftConfig) *DriftMonitor {
	return &DriftMonitor{
		cfg: cfg,
		// Registry get-or-create is nil-safe, so an unregistered monitor
		// just updates no-op instruments.
		ticks:       cfg.Registry.Counter("obs.drift.ticks"),
		exceededC:   cfg.Registry.Counter("obs.drift.exceeded_total"),
		recoveredC:  cfg.Registry.Counter("obs.drift.recovered_total"),
		forgottenC:  cfg.Registry.Counter("obs.drift.forgotten_total"),
		inViolation: cfg.Registry.Gauge("obs.drift.sessions_exceeded"),
	}
}

// Tick walks the observed sessions once and returns the transitions it
// found (nil when nothing changed). Sessions whose gauges disappeared
// since the last tick (released compositions) are forgotten without a
// recovery event; ones that vanished while in violation bump
// "obs.drift.forgotten_total", keeping the accounting identity
// exceeded_total == recovered_total + forgotten_total +
// sessions_exceeded. Safe for concurrent use; nil-safe.
func (m *DriftMonitor) Tick() []DriftEvent {
	if m == nil || m.cfg.Observed == nil || m.cfg.Required == nil {
		return nil
	}
	m.ticks.Inc()
	var events []DriftEvent
	m.mu.Lock()
	// One read of each vector per tick, both from one scrape, joined on
	// their common label order.
	scrape := newScrape()
	observed := gaugeValues(m.cfg.Observed, scrape)
	required := gaugeValues(m.cfg.Required, scrape)
	if m.violating == nil {
		m.violating = make(map[string]uint64)
	}
	m.tick++
	j := 0
	for _, o := range observed {
		for j < len(required) && compareLabels(required[j].Labels, o.Labels) < 0 {
			j++
		}
		if j == len(required) || compareLabels(required[j].Labels, o.Labels) != 0 {
			continue
		}
		req := required[j].Value
		key := labelKey(o.Labels)
		_, wasExceeded := m.violating[key]
		nowExceeded := o.Value > req*(1+m.cfg.Tolerance)
		if nowExceeded {
			m.violating[key] = m.tick
		} else if wasExceeded {
			delete(m.violating, key)
		}
		if nowExceeded != wasExceeded {
			events = append(events, DriftEvent{
				Session:  strings.Join(o.Labels, "/"),
				Observed: o.Value,
				Required: req,
				Exceeded: nowExceeded,
			})
		}
	}
	forgotten := 0
	for key, seen := range m.violating {
		if seen != m.tick {
			// Released while in violation: no recovery event will
			// ever fire, so account the episode as forgotten.
			forgotten++
			delete(m.violating, key)
		}
	}
	violating := len(m.violating)
	m.mu.Unlock()

	if forgotten > 0 {
		m.forgottenC.Add(int64(forgotten))
	}
	m.inViolation.Set(float64(violating))
	for _, ev := range events {
		if ev.Exceeded {
			m.exceededC.Inc()
			m.cfg.Tracer.QoSDrift(ev.Session, ev.Observed, ev.Required, ReasonDriftExceeded)
		} else {
			m.recoveredC.Inc()
			m.cfg.Tracer.QoSDrift(ev.Session, ev.Observed, ev.Required, ReasonDriftRecovered)
		}
		if m.cfg.OnDrift != nil {
			m.cfg.OnDrift(ev)
		}
	}
	return events
}
