package harness

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/runtime"
)

// reportAdaptFailure mirrors reportFailure for adaptation scenarios.
func reportAdaptFailure(t *testing.T, rep *AdaptReport, err error) {
	t.Helper()
	const tail = 40
	log := rep.Log
	if len(log) > tail {
		log = log[len(log)-tail:]
	}
	t.Errorf("seed %d failed: %v\nreplay: ACP_SIM_SEED=%d go test ./internal/harness -run %s -v\nlast %d schedule entries:\n%s",
		rep.Seed, err, rep.Seed, t.Name(), len(log), strings.Join(log, "\n"))
}

// TestAdaptationScenarios sweeps seeded drift/churn schedules over the
// live runtime with the re-composition controller on, auditing
// conservation, never-unheld, and no-worse-phi at every tick.
func TestAdaptationScenarios(t *testing.T) {
	if seed, ok := replaySeed(t); ok {
		rep, err := RunAdaptScenario(AdaptScenarioConfig{Seed: seed})
		if err != nil {
			reportAdaptFailure(t, rep, err)
		}
		return
	}
	n := seedCount(t, 5)
	migrations := int64(0)
	exceeded := int64(0)
	for seed := int64(1); seed <= int64(n); seed++ {
		rep, err := RunAdaptScenario(AdaptScenarioConfig{Seed: seed, Predictive: seed%4 == 0})
		if err != nil {
			reportAdaptFailure(t, rep, err)
			return
		}
		if rep.Admitted == 0 {
			t.Fatalf("seed %d: adaptation scenario admitted nothing", seed)
		}
		migrations += rep.Migrations
		exceeded += rep.Exceeded
	}
	// The sweep as a whole must actually exercise the adaptation path:
	// surges that drift sessions and migrations that answer them.
	if exceeded == 0 {
		t.Fatal("sweep produced no drift violations; surge schedule is degenerate")
	}
	if migrations == 0 {
		t.Fatal("sweep produced no migrations; the controller never acted")
	}
}

// TestAdaptScenarioDeterminism: the same seed must reproduce the
// identical adaptation schedule and outcome, bit for bit.
func TestAdaptScenarioDeterminism(t *testing.T) {
	first, err := RunAdaptScenario(AdaptScenarioConfig{Seed: 42})
	if err != nil {
		reportAdaptFailure(t, first, err)
		return
	}
	second, err := RunAdaptScenario(AdaptScenarioConfig{Seed: 42})
	if err != nil {
		reportAdaptFailure(t, second, err)
		return
	}
	if strings.Join(first.Log, "\n") != strings.Join(second.Log, "\n") {
		t.Fatal("same seed produced different adaptation schedules")
	}
	if first.Admitted != second.Admitted || first.Migrations != second.Migrations ||
		first.Exceeded != second.Exceeded || first.Recovered != second.Recovered ||
		first.Forgotten != second.Forgotten || first.Abandoned != second.Abandoned {
		t.Fatalf("same seed, different outcomes:\n  run 1: %+v\n  run 2: %+v", first, second)
	}
}

// TestControllerReducesViolationExposure plays one seeded surge schedule
// on the adaptation bed twice: observed only, then with the
// re-composition controller answering drift. The controller's run must
// spend strictly fewer session-ticks in violation, and it must migrate.
func TestControllerReducesViolationExposure(t *testing.T) {
	observed, idle := surgeExposure(t, false)
	if observed == 0 {
		t.Fatal("surge schedule degenerate: no session ever drifted past its bound")
	}
	if idle != 0 {
		t.Fatalf("no controller but %d migrations happened", idle)
	}
	adapted, migrations := surgeExposure(t, true)
	if migrations == 0 {
		t.Fatal("controller on but never migrated")
	}
	if adapted >= observed {
		t.Fatalf("controller did not reduce violation exposure: %d ticks observed only, %d with the controller",
			observed, adapted)
	}
	t.Logf("violation ticks: %d observed only, %d with the controller (%d migrations)", observed, adapted, migrations)
}

// surgeExposure admits four sessions on seed 1's bed, settles two
// ticks, then four times squeezes a random live session's nodes for six
// ticks and drains three. The surges are drawn before any migration, so
// both modes see the same schedule. It returns the session-ticks spent
// past the drift bound and the migrations made.
func surgeExposure(t *testing.T, adapt bool) (violationTicks, migrations int64) {
	t.Helper()
	bed, err := newAdaptBed(1)
	if err != nil {
		t.Fatal(err)
	}
	c := bed.Cluster
	defer c.Shutdown()
	if adapt {
		ctrl, err := c.EnableAdaptation(runtime.AdaptConfig{
			Period:       time.Second,
			Tolerance:    adaptTolerance,
			MaxRetries:   3,
			RetryBackoff: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ctrl.Stop()
		ctrl.Start()
	}
	tick := func(n int) {
		for i := 0; i < n; i++ {
			bed.Clock.Advance(time.Second)
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for _, a := range c.AuditSessions() {
				if a.ObservedPhi > a.RequiredPhi*(1+adaptTolerance) {
					violationTicks++
				}
			}
		}
	}

	draws := rand.New(rand.NewSource(1 ^ 0xad47))
	for i := 0; i < 4; i++ {
		if _, err := bed.Admit(draws); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	tick(2)
	for ep := 0; ep < 4; ep++ {
		sessions := c.AuditSessions()
		victim := sessions[draws.Intn(len(sessions))]
		owner := int64(-(ep + 1))
		if err := bed.Surge(owner, victim.ID); err != nil {
			t.Fatalf("surge %d: %v", ep, err)
		}
		tick(6)
		c.ReleaseLoad(owner)
		tick(3)
	}
	return violationTicks, bed.Registry.Snapshot().Counters["runtime.migrations"]
}
