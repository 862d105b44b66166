package obs

import (
	"fmt"
	"testing"
)

// driftFixture wires a registry-backed monitor over one observed /
// required gauge pair.
func driftFixture(t *testing.T, tol float64) (*Registry, *GaugeVec, *GaugeVec, *DriftMonitor, *[]DriftEvent) {
	t.Helper()
	r := NewRegistry()
	observed := r.GaugeVec("session.qos.observed", "session")
	required := r.GaugeVec("session.qos.required", "session")
	var got []DriftEvent
	m := NewDriftMonitor(DriftConfig{
		Observed:  observed,
		Required:  required,
		Tolerance: tol,
		Registry:  r,
		OnDrift:   func(ev DriftEvent) { got = append(got, ev) },
	})
	return r, observed, required, m, &got
}

func TestDriftMonitorTransitions(t *testing.T) {
	r, observed, required, m, got := driftFixture(t, 0)

	observed.With("7").Set(0.8)
	required.With("7").Set(1)
	if evs := m.Tick(); len(evs) != 0 {
		t.Fatalf("healthy session produced events: %+v", evs)
	}

	// Cross into violation: exactly one exceeded event, level-triggered.
	observed.With("7").Set(1.5)
	evs := m.Tick()
	if len(evs) != 1 || !evs[0].Exceeded || evs[0].Session != "7" {
		t.Fatalf("expected one exceeded event for session 7, got %+v", evs)
	}
	if evs[0].Observed != 1.5 || evs[0].Required != 1 {
		t.Fatalf("event values = %+v", evs[0])
	}
	if evs := m.Tick(); len(evs) != 0 {
		t.Fatalf("still-violating session re-reported: %+v", evs)
	}

	// Recover: one recovered event.
	observed.With("7").Set(0.9)
	evs = m.Tick()
	if len(evs) != 1 || evs[0].Exceeded {
		t.Fatalf("expected one recovered event, got %+v", evs)
	}

	// Counters and callback agree with the transitions seen.
	s := r.Snapshot()
	if c := s.Counters["obs.drift.exceeded_total"]; c != 1 {
		t.Fatalf("exceeded_total = %d, want 1", c)
	}
	if c := s.Counters["obs.drift.recovered_total"]; c != 1 {
		t.Fatalf("recovered_total = %d, want 1", c)
	}
	if g := s.Gauges["obs.drift.sessions_exceeded"]; g != 0 {
		t.Fatalf("sessions_exceeded = %v, want 0", g)
	}
	if len(*got) != 2 {
		t.Fatalf("OnDrift saw %d events, want 2", len(*got))
	}
}

func TestDriftMonitorToleranceAndSkips(t *testing.T) {
	_, observed, required, m, _ := driftFixture(t, 0.25)

	// Within tolerance headroom: 1.2 <= 1 * 1.25.
	observed.With("a").Set(1.2)
	required.With("a").Set(1)
	if evs := m.Tick(); len(evs) != 0 {
		t.Fatalf("within-tolerance session drifted: %+v", evs)
	}
	observed.With("a").Set(1.3)
	if evs := m.Tick(); len(evs) != 1 || !evs[0].Exceeded {
		t.Fatalf("beyond-tolerance session missed: %+v", evs)
	}

	// A session with no requirement child is skipped entirely.
	observed.With("orphan").Set(99)
	if evs := m.Tick(); len(evs) != 0 {
		t.Fatalf("requirement-less session drifted: %+v", evs)
	}
}

func TestDriftMonitorForgetsReleasedSessions(t *testing.T) {
	r, observed, required, m, _ := driftFixture(t, 0)

	observed.With("s1").Set(2)
	required.With("s1").Set(1)
	if evs := m.Tick(); len(evs) != 1 {
		t.Fatalf("expected drift, got %+v", evs)
	}

	// Releasing the session removes its gauges; the monitor forgets it
	// without a phantom recovery event.
	observed.Delete("s1")
	required.Delete("s1")
	if evs := m.Tick(); len(evs) != 0 {
		t.Fatalf("released session produced events: %+v", evs)
	}
	if g := r.Snapshot().Gauges["obs.drift.sessions_exceeded"]; g != 0 {
		t.Fatalf("sessions_exceeded = %v after release, want 0", g)
	}

	// If the same session name comes back violating it reports anew.
	observed.With("s1").Set(2)
	required.With("s1").Set(1)
	if evs := m.Tick(); len(evs) != 1 || !evs[0].Exceeded {
		t.Fatalf("re-registered session missed: %+v", evs)
	}
}

// TestDriftMonitorForgottenAccounting pins the counter identity
// exceeded_total == recovered_total + forgotten_total +
// sessions_exceeded: a session released while in violation is counted
// as forgotten instead of silently diverging the books.
func TestDriftMonitorForgottenAccounting(t *testing.T) {
	r, observed, required, m, _ := driftFixture(t, 0)

	// s1 drifts and is released mid-violation; s2 drifts and recovers;
	// s3 is released while healthy (no forgotten bump).
	for _, s := range []string{"s1", "s2", "s3"} {
		observed.With(s).Set(0.5)
		required.With(s).Set(1)
	}
	m.Tick()
	observed.With("s1").Set(2)
	observed.With("s2").Set(2)
	if evs := m.Tick(); len(evs) != 2 {
		t.Fatalf("expected two exceeded events, got %+v", evs)
	}
	observed.Delete("s1")
	required.Delete("s1")
	observed.Delete("s3")
	required.Delete("s3")
	observed.With("s2").Set(0.5)
	if evs := m.Tick(); len(evs) != 1 || evs[0].Exceeded {
		t.Fatalf("expected one recovery, got %+v", evs)
	}

	s := r.Snapshot()
	exceeded := s.Counters["obs.drift.exceeded_total"]
	recovered := s.Counters["obs.drift.recovered_total"]
	forgotten := s.Counters["obs.drift.forgotten_total"]
	inViolation := int64(s.Gauges["obs.drift.sessions_exceeded"])
	if exceeded != 2 || recovered != 1 || forgotten != 1 || inViolation != 0 {
		t.Fatalf("exceeded=%d recovered=%d forgotten=%d in_violation=%d",
			exceeded, recovered, forgotten, inViolation)
	}
	if exceeded != recovered+forgotten+inViolation {
		t.Fatalf("accounting identity broken: %d != %d + %d + %d",
			exceeded, recovered, forgotten, inViolation)
	}
}

// TestDriftMonitorTraceEvents checks what a tick publishes: one
// qos.drift trace event per transition, with the session and both gauge
// values as its payload, and one obs.drift.ticks count per Tick.
func TestDriftMonitorTraceEvents(t *testing.T) {
	r := NewRegistry()
	observed := r.GaugeVec("session.qos.observed", "session")
	required := r.GaugeVec("session.qos.required", "session")
	tr := NewLive()
	sub := tr.Subscribe(16)
	defer sub.Close()

	m := NewDriftMonitor(DriftConfig{
		Observed: observed,
		Required: required,
		Tracer:   tr,
		Registry: r,
	})

	observed.With("9").Set(3)
	required.With("9").Set(1)

	m.Tick()
	m.Tick()
	if c := r.Snapshot().Counters["obs.drift.ticks"]; c != 2 {
		t.Fatalf("ticks = %d after two Ticks, want 2", c)
	}

	evs := sub.Drain()
	if len(evs) != 1 || evs[0].Type != EventQoSDrift || evs[0].Reason != ReasonDriftExceeded {
		t.Fatalf("trace events = %+v, want one qos.drift exceeded", evs)
	}
	if evs[0].Session != "9" || evs[0].Observed != 3 || evs[0].Required != 1 {
		t.Fatalf("qos.drift payload = %+v", evs[0])
	}

	observed.With("9").Set(0.5)
	m.Tick()
	evs = sub.Drain()
	if len(evs) != 1 || evs[0].Reason != ReasonDriftRecovered {
		t.Fatalf("trace events = %+v, want one qos.drift recovered", evs)
	}
	if c := r.Snapshot().Counters["obs.drift.ticks"]; c != 3 {
		t.Fatalf("ticks = %d after three Ticks, want 3", c)
	}
}

func TestDriftMonitorNilSafe(t *testing.T) {
	var m *DriftMonitor
	if evs := m.Tick(); evs != nil {
		t.Fatalf("nil monitor ticked: %+v", evs)
	}

	// A monitor with no gauges configured is inert too.
	inert := NewDriftMonitor(DriftConfig{})
	if evs := inert.Tick(); evs != nil {
		t.Fatalf("unconfigured monitor ticked: %+v", evs)
	}
}

// TestDriftTickReadsEachVectorOnce: a tick reads Observed and Required
// once each, from one scrape, and joins them in one pass — what it
// allocates does not grow with the session count beyond the two row
// arrays. Reading each session's two gauges apart costs a source-backed
// vector a full read per session, quadratic in the sessions.
func TestDriftTickReadsEachVectorOnce(t *testing.T) {
	tick := func(sessions int) float64 {
		observed, required := &tableSource{}, &tableSource{}
		drifting := 0
		for i := 0; i < sessions; i++ {
			label := []string{fmt.Sprint(i)}
			observed.rows = append(observed.rows, label)
			observed.values = append(observed.values, 0.5+float64(i%2)) // every other session drifts
			if i%3 != 0 {                                               // a third have no requirement
				drifting += i % 2
				required.rows = append(required.rows, label)
				required.values = append(required.values, 1)
			}
		}
		r := NewRegistry()
		m := NewDriftMonitor(DriftConfig{
			Observed: r.GaugeVecFunc("session.phi", observed.collect, "session"),
			Required: r.GaugeVecFunc("session.phi.required", required.collect, "session"),
		})
		evs := m.Tick()
		if len(evs) != drifting {
			t.Fatalf("%d sessions: %d drift events, want %d", sessions, len(evs), drifting)
		}
		if observed.reads != 1 || required.reads != 1 {
			t.Fatalf("one tick read observed %d times and required %d times, want once each", observed.reads, required.reads)
		}
		for scrape := range observed.scrapes {
			if required.scrapes[scrape] != 1 {
				t.Fatal("observed and required were read for different scrapes")
			}
		}
		return testing.AllocsPerRun(20, func() { m.Tick() })
	}
	small, large := tick(300), tick(3000)
	t.Logf("a tick allocates %.0f at 300 sessions, %.0f at 3000", small, large)
	if large > small+64 {
		t.Errorf("a tick allocates %.0f at 3000 sessions, %.0f at 300: more than the row arrays' growth", large, small)
	}
}
