package runtime

import (
	"errors"
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
	vc := clock.NewVirtual()
	r := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.IPNodes = 256
	cfg.OverlayNodes = 32
	cfg.NumFunctions = 8
	cfg.Clock = vc
	cfg.Registry = r
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c, r, vc
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
// make-before-break, and the monitor reports compliance — with exactly
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
		Period:        time.Second,
		Tolerance:     1.0,
		Predictive:    true,
		ForecastSteps: 3,
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
