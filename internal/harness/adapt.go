package harness

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/component"
	"repro/internal/harness/clock"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/runtime"
	"repro/internal/state"
)

// adaptBed is the substrate every adaptation run plays on: an 8-node
// runtime cluster on a virtual clock with a registry attached, the
// session draw admitted into it, and the surge that squeezes a session.
type adaptBed struct {
	Cluster  *runtime.Cluster
	Clock    *clock.Virtual
	Registry *obs.Registry
}

// newAdaptBed builds the adaptation substrate for seed.
func newAdaptBed(seed int64) (*adaptBed, error) {
	b := &adaptBed{Clock: clock.NewVirtual(), Registry: obs.NewRegistry()}
	rcfg := runtime.DefaultConfig()
	rcfg.Config = bed(seed)
	rcfg.Clock = b.Clock
	rcfg.Registry = b.Registry
	c, err := runtime.NewCluster(rcfg)
	if err != nil {
		return nil, err
	}
	b.Cluster = c
	return b, nil
}

// Admit draws one session from draws — a path of 2 or 3 functions, CPU
// 2–10 and memory 20–100 per position, 20–80 kbps — and composes it.
func (b *adaptBed) Admit(draws *rand.Rand) (runtime.SessionID, error) {
	length := 2 + draws.Intn(2)
	fns := make([]component.FunctionID, length)
	for i := range fns {
		fns[i] = component.FunctionID(draws.Intn(bedFunctions))
	}
	res := make([]qos.Resources, length)
	for i := range res {
		res[i] = qos.Resources{CPU: 2 + draws.Float64()*8, Memory: 20 + draws.Float64()*80}
	}
	return b.Cluster.Find(component.NewPathGraph(fns),
		qos.Vector{Delay: 1e5, LossCost: qos.LossCost(0.9)}, res, 20+draws.Float64()*60)
}

// Surge injects load under owner that leaves every node of the session's
// composition a sliver of its residual: one CPU and ten memory units.
func (b *adaptBed) Surge(owner int64, id runtime.SessionID) error {
	desc, err := b.Cluster.Describe(id)
	if err != nil {
		return err
	}
	var load []state.NodeShare
	for _, pc := range desc.Components {
		if slices.ContainsFunc(load, func(s state.NodeShare) bool { return s.ID == pc.Node }) {
			continue
		}
		avail := b.Cluster.NodeResidual(pc.Node)
		load = append(load, state.NodeShare{ID: pc.Node, Amount: qos.Resources{CPU: avail.CPU - 1, Memory: avail.Memory - 10}})
	}
	return b.Cluster.InjectLoad(owner, load)
}

// AdaptScenarioConfig parameterises one seeded adaptation run: a live
// runtime cluster on the virtual clock, churned by admissions, closes,
// and synthetic congestion surges, with the re-composition controller
// answering drift. The seed alone replays the run.
type AdaptScenarioConfig struct {
	// Seed drives the substrate, workload, and surge schedule.
	Seed int64
	// Rounds is how many surge/churn rounds the scenario plays. Zero
	// means 6.
	Rounds int
	// Sessions is the concurrent-session target the workload tops up to
	// each round. Zero means 3.
	Sessions int
	// Predictive enables the controller's Holt forecast mode.
	Predictive bool
}

// AdaptReport is the outcome of one adaptation scenario.
type AdaptReport struct {
	Seed       int64
	Admitted   int
	Migrations int64
	Exceeded   int64
	Recovered  int64
	Forgotten  int64
	Abandoned  int64
	// Log narrates the schedule: every admission, surge, tick batch,
	// close, and audit point. The failing-seed replay transcript.
	Log []string
}

// adaptTolerance is the drift headroom every adaptation scenario runs
// with: observed phi may run 50% over the admission-time bound before
// the controller acts, and replacement compositions get the same slack.
const adaptTolerance = 0.5

// RunAdaptScenario executes one seeded adaptation scenario end to end
// and audits, at every virtual-clock tick:
//
//   - the ledger's conservation invariants (Eqs. 4–5), including any
//     open migration windows;
//   - that no live session is ever unheld — make-before-break means a
//     committed allocation exists at every instant, including
//     mid-migration;
//   - no-worse-phi: a session that just migrated must not be worse off
//     than before the flip (and within the acceptance bound, modulo
//     same-tick placements by other migrations).
//
// At teardown it verifies full resource recovery and the drift
// pass's accounting identity.
func RunAdaptScenario(sc AdaptScenarioConfig) (*AdaptReport, error) {
	if sc.Rounds <= 0 {
		sc.Rounds = 6
	}
	if sc.Sessions <= 0 {
		sc.Sessions = 3
	}
	wrng := rand.New(rand.NewSource(mix(sc.Seed ^ 0xada7)))

	bed, err := newAdaptBed(sc.Seed)
	if err != nil {
		return nil, err
	}
	c, vc, reg := bed.Cluster, bed.Clock, bed.Registry
	defer c.Shutdown()

	ctrl, err := c.EnableAdaptation(runtime.AdaptConfig{
		Tolerance:  adaptTolerance,
		Predictive: sc.Predictive,
	})
	if err != nil {
		return nil, err
	}
	defer ctrl.Stop()
	ctrl.Start()

	rep := &AdaptReport{Seed: sc.Seed}
	logf := func(format string, args ...interface{}) {
		rep.Log = append(rep.Log, fmt.Sprintf(format, args...))
	}
	fail := func(err error) (*AdaptReport, error) {
		fillAdaptReport(rep, reg)
		return rep, fmt.Errorf("seed %d: %w", sc.Seed, err)
	}

	tick := func(stage string) error {
		pre := map[runtime.SessionID]runtime.SessionAudit{}
		for _, a := range c.AuditSessions() {
			pre[a.ID] = a
		}
		vc.Advance(time.Second)
		logf("tick (%s) t=%v", stage, vc.Now().Sub(time.Unix(0, 0)))
		if err := c.CheckInvariants(); err != nil {
			return fmt.Errorf("%s: %w", stage, err)
		}
		for _, a := range c.AuditSessions() {
			before, seen := pre[a.ID]
			if !seen || a.Migrations == before.Migrations {
				continue
			}
			// Freshly migrated: the flip must leave the session no worse
			// than it stood before the tick, and the acceptance rule says
			// the new composition met the bound at decision time. Other
			// sessions migrating in the same tick may land nearby, so the
			// bound check carries their worst-case squeeze via max().
			bound := a.RequiredPhi * (1 + adaptTolerance)
			limit := bound
			if before.ObservedPhi > limit {
				limit = before.ObservedPhi
			}
			if a.ObservedPhi > limit+1e-9 {
				return fmt.Errorf("%s: session %d worse after migration: phi %v, pre-flip %v, bound %v",
					stage, a.ID, a.ObservedPhi, before.ObservedPhi, bound)
			}
			logf("audit: session %d migrated (phi %.3f -> %.3f, bound %.3f)",
				a.ID, before.ObservedPhi, a.ObservedPhi, bound)
		}
		return nil
	}

	admit := func() error {
		for c.ActiveSessions() < sc.Sessions {
			id, err := bed.Admit(wrng)
			if err != nil {
				logf("admit refused: %v", err)
				return nil // congestion can legitimately refuse admissions
			}
			rep.Admitted++
			logf("admitted session %d", id)
		}
		return nil
	}

	var surges []int64
	nextSurge := int64(-1)
	live := func() []runtime.SessionAudit { return c.AuditSessions() }

	for round := 0; round < sc.Rounds; round++ {
		if err := admit(); err != nil {
			return fail(err)
		}
		if err := tick("baseline"); err != nil {
			return fail(err)
		}

		// Surge: squeeze a random live session's nodes to a sliver.
		if sessions := live(); len(sessions) > 0 && wrng.Float64() < 0.8 {
			victim := sessions[wrng.Intn(len(sessions))]
			if err := bed.Surge(nextSurge, victim.ID); err == nil {
				logf("round %d: surge %d on session %d's nodes", round, nextSurge, victim.ID)
				surges = append(surges, nextSurge)
				nextSurge--
			}
		}

		// Let the controller observe, migrate, and settle.
		for i := 0; i < 3; i++ {
			if err := tick("settle"); err != nil {
				return fail(err)
			}
		}

		// Surges end; sessions sometimes close mid-violation (the drift
		// monitor must account them as forgotten, not leak them).
		if len(surges) > 0 && wrng.Float64() < 0.6 {
			c.ReleaseLoad(surges[0])
			logf("round %d: released surge %d", round, surges[0])
			surges = surges[1:]
		}
		if sessions := live(); len(sessions) > 0 && wrng.Float64() < 0.4 {
			victim := sessions[wrng.Intn(len(sessions))]
			if err := c.Close(victim.ID); err != nil {
				return fail(fmt.Errorf("round %d: close session %d: %w", round, victim.ID, err))
			}
			logf("round %d: closed session %d", round, victim.ID)
		}
		if err := tick("churn"); err != nil {
			return fail(err)
		}
	}

	// Teardown: end every surge, let violations recover, close all.
	for _, owner := range surges {
		c.ReleaseLoad(owner)
	}
	logf("teardown: all surges released")
	for i := 0; i < 2; i++ {
		if err := tick("drain"); err != nil {
			return fail(err)
		}
	}
	for _, a := range live() {
		if err := c.Close(a.ID); err != nil {
			return fail(fmt.Errorf("teardown close %d: %w", a.ID, err))
		}
	}
	if err := tick("idle"); err != nil {
		return fail(err)
	}
	if got := c.ActiveSessions(); got != 0 {
		return fail(fmt.Errorf("teardown left %d sessions", got))
	}
	// Full resource recovery: the books pristine.
	if err := Audit(nil, runtimeBooks(c)); err != nil {
		return fail(fmt.Errorf("after teardown: %w", err))
	}

	fillAdaptReport(rep, reg)
	// The drift pass's books must balance: every violation episode
	// ends in exactly one of recovery, forgetting (closed mid-violation),
	// or still-in-violation (impossible here — the cluster is idle).
	s := reg.Snapshot()
	inViolation := int64(s.Gauges["obs.drift.sessions_exceeded"])
	if inViolation != 0 {
		return fail(fmt.Errorf("idle cluster reports %d sessions in violation", inViolation))
	}
	if rep.Exceeded != rep.Recovered+rep.Forgotten {
		return fail(fmt.Errorf("drift accounting broken: exceeded %d != recovered %d + forgotten %d",
			rep.Exceeded, rep.Recovered, rep.Forgotten))
	}
	return rep, nil
}

func fillAdaptReport(rep *AdaptReport, reg *obs.Registry) {
	s := reg.Snapshot()
	rep.Migrations = s.Counters["runtime.migrations"]
	rep.Exceeded = s.Counters["obs.drift.exceeded_total"]
	rep.Recovered = s.Counters["obs.drift.recovered_total"]
	rep.Forgotten = s.Counters["obs.drift.forgotten_total"]
	rep.Abandoned = s.Counters["adapt.abandoned"]
}
