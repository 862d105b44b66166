package runtime

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/harness/clock"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/state"
)

// adaptCluster builds a small cluster on a virtual clock with a live
// registry, the fixture for deterministic adaptation schedules.
func adaptCluster(t *testing.T) (*Cluster, *obs.Registry, *clock.Virtual) {
	t.Helper()
	r := obs.NewRegistry()
	c, vc := adaptClusterWith(t, r, nil)
	return c, r, vc
}

// adaptClusterWith builds adaptCluster's cluster with the given registry
// and tracer, either of which may be nil.
func adaptClusterWith(t *testing.T, r *obs.Registry, tr *obs.Tracer) (*Cluster, *clock.Virtual) {
	t.Helper()
	vc := clock.NewVirtual()
	cfg := DefaultConfig()
	cfg.IPNodes = 256
	cfg.OverlayNodes = 32
	cfg.NumFunctions = 8
	cfg.Clock = vc
	cfg.Registry = r
	cfg.Tracer = tr
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c, vc
}

// findEasy composes one easy three-function path session on c.
func findEasy(t *testing.T, c *Cluster) SessionID {
	t.Helper()
	qosReq, resReq, bw := easyArgs(3)
	id, err := c.Find(component.NewPathGraph([]component.FunctionID{0, 1, 2}), qosReq, resReq, bw)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// setPhi sets the phi the drift pass reads for session id to scale times
// its admission-time bound, and returns the value set.
func setPhi(c *Cluster, id SessionID, scale float64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.sessions[id]
	s.phi = scale * s.requiredPhi
	return s.phi
}

// congestNodes injects synthetic background load under a negative owner
// on the given nodes, leaving roughly `leave` of each resource free.
func congestNodes(t *testing.T, c *Cluster, owner int64, nodes []int, leave qos.Resources) {
	t.Helper()
	load := make([]state.NodeShare, 0, len(nodes))
	for _, n := range nodes {
		avail := c.NodeResidual(n)
		load = append(load, state.NodeShare{ID: n, Amount: qos.Resources{CPU: avail.CPU - leave.CPU, Memory: avail.Memory - leave.Memory}})
	}
	if err := c.InjectLoad(owner, load); err != nil {
		t.Fatalf("synthetic load: %v", err)
	}
}

// TestInjectLoadRefusesUnknownNodes: load on a node the cluster does not
// have is an error, not an index out of range in the ledger.
func TestInjectLoadRefusesUnknownNodes(t *testing.T) {
	c, _, _ := adaptCluster(t)
	for _, bad := range []int{-1, c.NumNodes()} {
		if err := c.InjectLoad(-1, []state.NodeShare{{ID: bad, Amount: qos.Resources{CPU: 1, Memory: 1}}}); err == nil {
			t.Errorf("load on node %d accepted", bad)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func sessionNodes(t *testing.T, c *Cluster, id SessionID) []int {
	t.Helper()
	desc, err := c.Describe(id)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	var nodes []int
	for _, pc := range desc.Components {
		if !seen[pc.Node] {
			seen[pc.Node] = true
			nodes = append(nodes, pc.Node)
		}
	}
	return nodes
}

func TestRecomposeIdleClusterFlips(t *testing.T) {
	c, r, _ := adaptCluster(t)
	graph := component.NewPathGraph([]component.FunctionID{0, 1, 2})
	qosReq, resReq, bw := easyArgs(3)
	id, err := c.Find(graph, qosReq, resReq, bw)
	if err != nil {
		t.Fatal(err)
	}
	before := c.AuditSessions()[0]

	// Nothing changed, so the re-probe finds a composition at the same
	// phi and the flip succeeds with adaptTol = 0.
	if err := c.Recompose(id); err != nil {
		t.Fatalf("recompose: %v", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	after := c.AuditSessions()[0]
	if after.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", after.Migrations)
	}
	if after.RequestID == before.RequestID {
		t.Fatal("migration kept the old ledger owner")
	}
	if after.RequiredPhi != before.RequiredPhi {
		t.Fatalf("migration renegotiated the phi bound: %v -> %v", before.RequiredPhi, after.RequiredPhi)
	}
	if after.ObservedPhi > after.RequiredPhi+1e-9 {
		t.Fatalf("post-flip phi %v above bound %v", after.ObservedPhi, after.RequiredPhi)
	}
	if got := r.Snapshot().Counters["runtime.migrations"]; got != 1 {
		t.Fatalf("runtime.migrations = %d, want 1", got)
	}
	if _, err := c.Describe(id); err != nil {
		t.Fatalf("session lost after migration: %v", err)
	}
	if err := c.Recompose(SessionID(777)); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("recompose of unknown session: %v", err)
	}
}

// TestAdaptDriftRecoverDeterministic is the tentpole schedule: one
// session drifts under synthetic congestion, the controller migrates it
// make-before-break, and the drift pass reports compliance — with exactly
// one exceeded event, one migration, and one recovery on the virtual
// clock, invariants audited at every step.
func TestAdaptDriftRecoverDeterministic(t *testing.T) {
	c, r, vc := adaptCluster(t)
	ctrl, err := c.EnableAdaptation(AdaptConfig{Period: time.Second, Tolerance: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()

	graph := component.NewPathGraph([]component.FunctionID{0, 1, 2})
	qosReq, resReq, bw := easyArgs(3)
	id, err := c.Find(graph, qosReq, resReq, bw)
	if err != nil {
		t.Fatal(err)
	}
	oldNodes := sessionNodes(t, c, id)

	ctrl.Start()
	vc.Advance(time.Second) // tick 1: healthy baseline
	s := r.Snapshot()
	if s.Counters["obs.drift.exceeded_total"] != 0 {
		t.Fatal("healthy session reported drift")
	}

	// Surge: squeeze the session's nodes to near-zero residual.
	congestNodes(t, c, -1, oldNodes, qos.Resources{CPU: 1, Memory: 10})
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	vc.Advance(time.Second) // tick 2: drift detected, migration fires
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("post-migration: %v", err)
	}
	s = r.Snapshot()
	if got := s.Counters["obs.drift.exceeded_total"]; got != 1 {
		t.Fatalf("exceeded_total = %d, want 1", got)
	}
	if got := s.Counters["adapt.migrations"]; got != 1 {
		t.Fatalf("adapt.migrations = %d, want 1", got)
	}
	audit := c.AuditSessions()[0]
	if audit.Migrations != 1 {
		t.Fatalf("session migrations = %d, want 1", audit.Migrations)
	}
	if audit.ObservedPhi > audit.RequiredPhi*1.5 {
		t.Fatalf("migrated session still violating: phi %v bound %v", audit.ObservedPhi, audit.RequiredPhi*1.5)
	}
	// The new composition stays clear of every congested node.
	for _, n := range sessionNodes(t, c, id) {
		for _, old := range oldNodes {
			if n == old {
				t.Fatalf("migrated composition still uses congested node %d", n)
			}
		}
	}

	vc.Advance(time.Second) // tick 3: recovery reported
	s = r.Snapshot()
	if got := s.Counters["obs.drift.recovered_total"]; got != 1 {
		t.Fatalf("recovered_total = %d, want 1", got)
	}

	// No storm: further ticks are quiet.
	vc.Advance(5 * time.Second)
	s = r.Snapshot()
	if s.Counters["obs.drift.exceeded_total"] != 1 || s.Counters["obs.drift.recovered_total"] != 1 {
		t.Fatalf("monitor storm: exceeded=%d recovered=%d",
			s.Counters["obs.drift.exceeded_total"], s.Counters["obs.drift.recovered_total"])
	}
	if got := s.Counters["adapt.migrations"]; got != 1 {
		t.Fatalf("adapt.migrations after settle = %d, want 1", got)
	}
	if got := s.Counters["obs.drift.forgotten_total"]; got != 0 {
		t.Fatalf("forgotten_total = %d, want 0", got)
	}
}

// TestAdaptRetryBackoffAndAbandon congests the whole cluster so no
// better composition exists: the controller must retry with doubling
// backoff and abandon the episode after MaxRetries, never migrating.
func TestAdaptRetryBackoffAndAbandon(t *testing.T) {
	c, r, vc := adaptCluster(t)
	ctrl, err := c.EnableAdaptation(AdaptConfig{
		Period:       time.Second,
		Tolerance:    0.5,
		MaxRetries:   2,
		RetryBackoff: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()

	graph := component.NewPathGraph([]component.FunctionID{0, 1, 2})
	qosReq, resReq, bw := easyArgs(3)
	id, err := c.Find(graph, qosReq, resReq, bw)
	if err != nil {
		t.Fatal(err)
	}

	// Congest every node: the re-probe can find nothing acceptable.
	all := make([]int, c.NumNodes())
	for i := range all {
		all[i] = i
	}
	congestNodes(t, c, -1, all, qos.Resources{CPU: 1, Memory: 10})

	ctrl.Start()
	vc.Advance(time.Second) // tick 1: drift, attempt 0 fails, retry armed at +2s
	s := r.Snapshot()
	if got := s.Counters["adapt.recompose_failures"]; got != 1 {
		t.Fatalf("failures after first attempt = %d, want 1", got)
	}
	vc.Advance(2 * time.Second) // t=3s: retry 1 fails, next retry at +4s
	if got := r.Snapshot().Counters["adapt.recompose_failures"]; got != 2 {
		t.Fatalf("failures after retry 1 = %d, want 2", got)
	}
	vc.Advance(4 * time.Second) // t=7s: retry 2 fails, episode abandoned
	s = r.Snapshot()
	if got := s.Counters["adapt.recompose_failures"]; got != 3 {
		t.Fatalf("failures after retry 2 = %d, want 3", got)
	}
	if got := s.Counters["adapt.abandoned"]; got != 1 {
		t.Fatalf("abandoned = %d, want 1", got)
	}
	vc.Advance(10 * time.Second) // quiet: no further attempts
	s = r.Snapshot()
	if got := s.Counters["adapt.recompose_failures"]; got != 3 {
		t.Fatalf("failures after abandon = %d, want 3", got)
	}
	if got := s.Counters["adapt.migrations"]; got != 0 {
		t.Fatalf("migrations = %d, want 0", got)
	}
	// Graceful fallback: the session kept its composition throughout.
	audit := c.AuditSessions()[0]
	if audit.ID != id || audit.Migrations != 0 {
		t.Fatalf("session audit = %+v, want zero migrations", audit)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptRetryClearsOnNaturalRecovery arms a retry, releases the
// synthetic load before it fires, and checks the retry ends the episode
// without another attempt.
func TestAdaptRetryClearsOnNaturalRecovery(t *testing.T) {
	c, r, vc := adaptCluster(t)
	ctrl, err := c.EnableAdaptation(AdaptConfig{
		Period:       time.Second,
		Tolerance:    0.5,
		MaxRetries:   3,
		RetryBackoff: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()

	graph := component.NewPathGraph([]component.FunctionID{0, 1, 2})
	qosReq, resReq, bw := easyArgs(3)
	if _, err := c.Find(graph, qosReq, resReq, bw); err != nil {
		t.Fatal(err)
	}
	all := make([]int, c.NumNodes())
	for i := range all {
		all[i] = i
	}
	congestNodes(t, c, -1, all, qos.Resources{CPU: 1, Memory: 10})

	ctrl.Start()
	vc.Advance(time.Second) // drift, attempt fails, retry armed at +5s
	if got := r.Snapshot().Counters["adapt.recompose_failures"]; got != 1 {
		t.Fatalf("failures = %d, want 1", got)
	}
	c.ReleaseLoad(-1)            // surge ends on its own
	vc.Advance(10 * time.Second) // retry fires, sees compliance, ends episode
	s := r.Snapshot()
	if got := s.Counters["adapt.recompose_failures"]; got != 1 {
		t.Fatalf("failures after natural recovery = %d, want 1", got)
	}
	if got := s.Counters["adapt.migrations"]; got != 0 {
		t.Fatalf("migrations = %d, want 0", got)
	}
	if got := s.Counters["obs.drift.recovered_total"]; got != 1 {
		t.Fatalf("recovered_total = %d, want 1", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptPredictiveMigratesBeforeViolation feeds a steadily rising
// congestion ramp: the Holt forecaster must project the bound crossing
// and migrate while the session is still compliant.
func TestAdaptPredictiveMigratesBeforeViolation(t *testing.T) {
	c, r, vc := adaptCluster(t)
	ctrl, err := c.EnableAdaptation(AdaptConfig{
		Period:     time.Second,
		Tolerance:  1.0,
		Predictive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()

	graph := component.NewPathGraph([]component.FunctionID{0, 1, 2})
	qosReq, resReq, bw := easyArgs(3)
	id, err := c.Find(graph, qosReq, resReq, bw)
	if err != nil {
		t.Fatal(err)
	}
	oldNodes := sessionNodes(t, c, id)

	ctrl.Start()
	// Ramp: each tick another slice of the session's nodes is consumed.
	// The trend is visible well before observed phi crosses the bound.
	for step := int64(1); step <= 20; step++ {
		load := make([]state.NodeShare, 0, len(oldNodes))
		for _, n := range oldNodes {
			load = append(load, state.NodeShare{ID: n, Amount: qos.Resources{CPU: 4, Memory: 40}})
		}
		if err := c.InjectLoad(-step, load); err != nil {
			break // nodes exhausted; ramp is over
		}
		vc.Advance(time.Second)
		if r.Snapshot().Counters["adapt.preemptive_migrations"] > 0 {
			break
		}
	}
	s := r.Snapshot()
	if got := s.Counters["adapt.preemptive_migrations"]; got != 1 {
		t.Fatalf("preemptive_migrations = %d, want 1 (exceeded=%d)",
			got, s.Counters["obs.drift.exceeded_total"])
	}
	if got := s.Counters["obs.drift.exceeded_total"]; got != 0 {
		t.Fatalf("predictive mode let the bound be crossed: exceeded=%d", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if audit := c.AuditSessions()[0]; audit.Migrations != 1 {
		t.Fatalf("session migrations = %d, want 1", audit.Migrations)
	}
}

// TestDriftPassTolerance: phi over the admission-time bound but within
// bound·(1+Tolerance) is no crossing; past it, one.
func TestDriftPassTolerance(t *testing.T) {
	c, r, _ := adaptCluster(t)
	ctrl, err := c.EnableAdaptation(AdaptConfig{Tolerance: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()
	id := findEasy(t, c)

	setPhi(c, id, 1.4)
	ctrl.driftPass()
	if got := r.Snapshot().Counters["obs.drift.exceeded_total"]; got != 0 {
		t.Fatalf("phi within the tolerance crossed: exceeded_total = %d", got)
	}
	setPhi(c, id, 1.6)
	ctrl.driftPass()
	if got := r.Snapshot().Counters["obs.drift.exceeded_total"]; got != 1 {
		t.Fatalf("phi past the tolerance: exceeded_total = %d, want 1", got)
	}
}

// TestDriftPassTransitions: a session crosses into violation once, is
// not reported again while it stays there, and crosses back once, with
// the counters and trace events agreeing on the two crossings.
func TestDriftPassTransitions(t *testing.T) {
	r, tr := obs.NewRegistry(), obs.NewLive()
	c, _ := adaptClusterWith(t, r, tr)
	ctrl, err := c.EnableAdaptation(AdaptConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()
	id := findEasy(t, c)
	sub := tr.Subscribe(1024)
	defer sub.Close()
	counts := func() (exceeded, recovered int64) {
		s := r.Snapshot()
		return s.Counters["obs.drift.exceeded_total"], s.Counters["obs.drift.recovered_total"]
	}

	setPhi(c, id, 0.8)
	ctrl.driftPass()
	if e, rc := counts(); e != 0 || rc != 0 {
		t.Fatalf("healthy session crossed: exceeded=%d recovered=%d", e, rc)
	}
	setPhi(c, id, 1.5)
	ctrl.driftPass()
	if e, rc := counts(); e != 1 || rc != 0 {
		t.Fatalf("after drifting: exceeded=%d recovered=%d, want 1 and 0", e, rc)
	}
	// The pass's attempt may have moved the session; drift it again so it
	// is still in violation on the next pass.
	setPhi(c, id, 1.5)
	ctrl.driftPass()
	if e, rc := counts(); e != 1 || rc != 0 {
		t.Fatalf("still-violating session re-reported: exceeded=%d recovered=%d", e, rc)
	}
	setPhi(c, id, 0.9)
	ctrl.driftPass()
	if e, rc := counts(); e != 1 || rc != 1 {
		t.Fatalf("after recovering: exceeded=%d recovered=%d, want 1 and 1", e, rc)
	}
	if g := r.Snapshot().Gauges["obs.drift.sessions_exceeded"]; g != 0 {
		t.Fatalf("sessions_exceeded = %v, want 0", g)
	}
	drifts := 0
	for _, ev := range sub.Drain() {
		if ev.Type == obs.EventQoSDrift {
			drifts++
		}
	}
	if drifts != 2 {
		t.Fatalf("%d qos.drift events, want 2", drifts)
	}
}

// TestDriftPassForgetsClosedSessions: a session closed in violation
// leaves the pass's state without a phantom recovery, and a session that
// drifts after it is reported anew.
func TestDriftPassForgetsClosedSessions(t *testing.T) {
	c, r, _ := adaptCluster(t)
	ctrl, err := c.EnableAdaptation(AdaptConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()
	id := findEasy(t, c)
	setPhi(c, id, 2)
	ctrl.driftPass()
	if got := r.Snapshot().Counters["obs.drift.exceeded_total"]; got != 1 {
		t.Fatalf("exceeded_total = %d, want 1", got)
	}

	if err := c.Close(id); err != nil {
		t.Fatal(err)
	}
	ctrl.driftPass()
	s := r.Snapshot()
	if got := s.Counters["obs.drift.recovered_total"]; got != 0 {
		t.Fatalf("closed session recovered: recovered_total = %d", got)
	}
	if g := s.Gauges["obs.drift.sessions_exceeded"]; g != 0 {
		t.Fatalf("sessions_exceeded = %v after close, want 0", g)
	}
	ctrl.mu.Lock()
	left := len(ctrl.violating)
	ctrl.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d sessions still held as violating after close", left)
	}

	next := findEasy(t, c)
	setPhi(c, next, 2)
	ctrl.driftPass()
	if got := r.Snapshot().Counters["obs.drift.exceeded_total"]; got != 2 {
		t.Fatalf("a later drifting session missed: exceeded_total = %d, want 2", got)
	}
}

// TestDriftPassReadsSessionTable: one pass decides every crossing from
// the session table itself, not from the session gauge families, and
// visits the sessions in the order of their decimal labels.
func TestDriftPassReadsSessionTable(t *testing.T) {
	r, tr := obs.NewRegistry(), obs.NewLive()
	c, _ := adaptClusterWith(t, r, tr)
	ctrl, err := c.EnableAdaptation(AdaptConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()
	var ids []SessionID
	for i := 0; i < 12; i++ {
		ids = append(ids, findEasy(t, c))
	}
	var want []string
	for i, id := range ids {
		if i%2 == 1 { // every other session drifts
			setPhi(c, id, 2)
			want = append(want, sessionLabel(id))
		}
	}
	slices.Sort(want) // label order: "10" and "12" come before "2"
	sub := tr.Subscribe(4096)
	defer sub.Close()

	lastScrape := func() uint64 {
		c.scrape.mu.Lock()
		defer c.scrape.mu.Unlock()
		return c.scrape.scrape
	}
	before := lastScrape()
	ctrl.driftPass()
	if after := lastScrape(); after != before {
		t.Fatalf("the drift pass read the session gauge families (scrape %d, was %d)", after, before)
	}
	var got []string
	for _, ev := range sub.Drain() {
		if ev.Type == obs.EventQoSDrift && ev.Reason == obs.ReasonDriftExceeded {
			got = append(got, ev.Session)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("exceeded sessions in order %v, want %v", got, want)
	}
	if n := r.Snapshot().Counters["obs.drift.exceeded_total"]; n != int64(len(want)) {
		t.Fatalf("exceeded_total = %d, want %d", n, len(want))
	}
}

// TestDriftPassForgottenAccounting pins the identity exceeded_total ==
// recovered_total + forgotten_total + sessions_exceeded: a session closed
// while in violation is counted as forgotten, one closed while healthy is
// not counted at all.
func TestDriftPassForgottenAccounting(t *testing.T) {
	c, r, _ := adaptCluster(t)
	ctrl, err := c.EnableAdaptation(AdaptConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()
	// s1 drifts and is closed mid-violation; s2 drifts and recovers; s3
	// is closed while healthy.
	s1, s2, s3 := findEasy(t, c), findEasy(t, c), findEasy(t, c)
	ctrl.driftPass()
	setPhi(c, s1, 2)
	setPhi(c, s2, 2)
	ctrl.driftPass()
	for _, id := range []SessionID{s1, s3} {
		if err := c.Close(id); err != nil {
			t.Fatal(err)
		}
	}
	setPhi(c, s2, 0.5)
	ctrl.driftPass()

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

// TestDriftPassTraceEvents checks what a step publishes: one qos.drift
// event per crossing, carrying the session label, its phi, its bound and
// the reason, and one obs.drift.ticks count per Step.
func TestDriftPassTraceEvents(t *testing.T) {
	r, tr := obs.NewRegistry(), obs.NewLive()
	c, _ := adaptClusterWith(t, r, tr)
	ctrl, err := c.EnableAdaptation(AdaptConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()
	id := findEasy(t, c)
	sub := tr.Subscribe(1024)
	defer sub.Close()
	drifts := func() []obs.Event {
		var out []obs.Event
		for _, ev := range sub.Drain() {
			if ev.Type == obs.EventQoSDrift {
				out = append(out, ev)
			}
		}
		return out
	}

	ctrl.Step()
	ctrl.Step()
	if got := r.Snapshot().Counters["obs.drift.ticks"]; got != 2 {
		t.Fatalf("ticks = %d after two Steps, want 2", got)
	}
	if evs := drifts(); len(evs) != 0 {
		t.Fatalf("healthy session drifted: %+v", evs)
	}

	phi := setPhi(c, id, 3)
	ctrl.driftPass()
	evs := drifts()
	if len(evs) != 1 || evs[0].Reason != obs.ReasonDriftExceeded {
		t.Fatalf("trace events = %+v, want one qos.drift exceeded", evs)
	}
	if evs[0].Session != sessionLabel(id) || evs[0].Observed != phi || evs[0].Required != phi/3 {
		t.Fatalf("qos.drift payload = %+v, want session %s observed %v required %v", evs[0], sessionLabel(id), phi, phi/3)
	}

	setPhi(c, id, 0.5)
	ctrl.driftPass()
	if evs := drifts(); len(evs) != 1 || evs[0].Reason != obs.ReasonDriftRecovered {
		t.Fatalf("trace events = %+v, want one qos.drift recovered", evs)
	}
}

// TestAdaptWithoutRegistry: the controller needs no metrics registry; a
// drifted session on a cluster without one still migrates.
func TestAdaptWithoutRegistry(t *testing.T) {
	c, vc := adaptClusterWith(t, nil, nil)
	ctrl, err := c.EnableAdaptation(AdaptConfig{Period: time.Second, Tolerance: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()
	id := findEasy(t, c)
	congestNodes(t, c, -1, sessionNodes(t, c, id), qos.Resources{CPU: 1, Memory: 10})

	ctrl.Start()
	vc.Advance(time.Second)
	if audit := c.AuditSessions()[0]; audit.Migrations != 1 {
		t.Fatalf("session migrations = %d, want 1", audit.Migrations)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptRetryHoldsOneTimer: an episode that fails twice before its
// retry fires holds one pending retry, not two, and abandoning an episode
// stops its pending retry. Every node is congested, so every attempt
// fails.
func TestAdaptRetryHoldsOneTimer(t *testing.T) {
	c, r, vc := adaptCluster(t)
	ctrl, err := c.EnableAdaptation(AdaptConfig{Tolerance: 0.5, MaxRetries: 3, RetryBackoff: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()
	id := findEasy(t, c)
	all := make([]int, c.NumNodes())
	for i := range all {
		all[i] = i
	}
	congestNodes(t, c, -1, all, qos.Resources{CPU: 1, Memory: 10})
	failures := func() int64 { return r.Snapshot().Counters["adapt.recompose_failures"] }

	// Two failures in one episode: the retry armed at +2 s gives way to
	// the one at +4 s, so advancing 4 s runs one attempt.
	ctrl.attempt(id, ctrl.migrations)
	ctrl.attempt(id, ctrl.migrations)
	vc.Advance(4 * time.Second)
	if got := failures(); got != 3 {
		t.Fatalf("failures = %d after the backoff, want 3: the first retry's timer outlived the second failure", got)
	}
	// The fourth failure, with the third's retry pending at +8 s, is past
	// MaxRetries: the episode ends and its retry never runs.
	ctrl.attempt(id, ctrl.migrations)
	if got := r.Snapshot().Counters["adapt.abandoned"]; got != 1 {
		t.Fatalf("abandoned = %d, want 1", got)
	}
	vc.Advance(time.Minute)
	if got := failures(); got != 4 {
		t.Fatalf("failures = %d after abandonment, want 4: the abandoned episode's retry ran", got)
	}
}
