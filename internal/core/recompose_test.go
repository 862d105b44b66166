package core

import (
	"testing"

	"repro/internal/component"
	"repro/internal/qos"
	"repro/internal/state"
)

// recomposeRequest clones an admitted request under a fresh ID, the way
// the runtime re-composition controller re-probes a drifting session.
func recomposeRequest(prev *component.Request, id int64) *component.Request {
	clone := *prev
	clone.ID = id
	clone.ResReq = append([]qos.Resources(nil), prev.ResReq...)
	return &clone
}

func TestProbeRecomposeAndCommitMigration(t *testing.T) {
	env, _ := testEnv(t, 11)
	c := mustComposer(t, env, DefaultConfig())
	req := easyRequest(1)
	out, err := c.Probe(req)
	if err != nil || !out.Success() {
		t.Fatalf("probe: %v success=%v", err, out.Success())
	}
	if err := c.Commit(out); err != nil {
		t.Fatal(err)
	}

	re := recomposeRequest(req, 2)
	reOut, err := c.ProbeRecompose(re, req.ID)
	if err != nil {
		t.Fatalf("recompose probe: %v", err)
	}
	if !reOut.Success() {
		t.Fatal("recompose found no composition on an idle cluster")
	}
	// With the session's own allocation credited as reusable, the
	// re-probe under identical conditions must find a composition at
	// least as good as the admitted one.
	if reOut.Best.Phi > out.Best.Phi+1e-9 {
		t.Fatalf("recompose phi %v worse than original %v", reOut.Best.Phi, out.Best.Phi)
	}
	// Make-before-break window open: session still committed, holds live.
	if !env.Ledger.HasSession(state.Owner(req.ID)) {
		t.Fatal("session unheld mid-migration")
	}
	if err := env.Ledger.CheckInvariants(); err != nil {
		t.Fatalf("mid-window: %v", err)
	}

	if err := c.CommitMigration(reOut, req.ID); err != nil {
		t.Fatalf("commit migration: %v", err)
	}
	if env.Ledger.HasSession(state.Owner(req.ID)) {
		t.Fatal("old owner still committed after flip")
	}
	if !env.Ledger.HasSession(state.Owner(re.ID)) {
		t.Fatal("new owner not committed after flip")
	}
	if got := env.Ledger.ActiveSessions(); got != 1 {
		t.Fatalf("ActiveSessions = %d after flip", got)
	}
	if err := env.Ledger.CheckInvariants(); err != nil {
		t.Fatalf("post-flip: %v", err)
	}
	// Confirmations charged for both the admission and the migration.
	if env.Counters.Confirmations.Load() != 6 {
		t.Errorf("Confirmations = %d, want 6", env.Counters.Confirmations.Load())
	}

	c.Release(re.ID)
	if env.Ledger.ActiveSessions() != 0 {
		t.Fatalf("ActiveSessions after release = %d", env.Ledger.ActiveSessions())
	}
	for n := 0; n < env.Ledger.NumNodes(); n++ {
		if got := freeOn(env, n); got != (qos.Resources{CPU: 100, Memory: 1000}) {
			t.Fatalf("node %d not restored: %v", n, got)
		}
	}
}

func TestAbortRecomposeKeepsSession(t *testing.T) {
	env, _ := testEnv(t, 12)
	c := mustComposer(t, env, DefaultConfig())
	req := easyRequest(1)
	out, err := c.Probe(req)
	if err != nil || !out.Success() {
		t.Fatalf("probe: %v", err)
	}
	if err := c.Commit(out); err != nil {
		t.Fatal(err)
	}

	re := recomposeRequest(req, 2)
	reOut, err := c.ProbeRecompose(re, req.ID)
	if err != nil || !reOut.Success() {
		t.Fatalf("recompose probe: %v", err)
	}
	c.AbortRecompose(re.ID)
	if !env.Ledger.HasSession(state.Owner(req.ID)) {
		t.Fatal("abort lost the committed session")
	}
	if err := env.Ledger.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The aborted probe left no holds behind: a full-capacity bystander
	// request can still be admitted exactly as before.
	c.Release(req.ID)
	for n := 0; n < env.Ledger.NumNodes(); n++ {
		if got := freeOn(env, n); got != (qos.Resources{CPU: 100, Memory: 1000}) {
			t.Fatalf("node %d not restored after abort+release: %v", n, got)
		}
	}
}

func TestProbeRecomposeUnknownSession(t *testing.T) {
	env, _ := testEnv(t, 13)
	c := mustComposer(t, env, DefaultConfig())
	re := recomposeRequest(easyRequest(1), 2)
	if _, err := c.ProbeRecompose(re, 999); err == nil {
		t.Fatal("recompose of uncommitted session accepted")
	}
	if err := env.Ledger.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestProbeRecomposeFailureClosesWindow drives the no-composition path:
// the request's QoS bound is impossible, so ProbeRecompose must close
// the migration window and release every hold before returning.
func TestProbeRecomposeFailureClosesWindow(t *testing.T) {
	env, _ := testEnv(t, 14)
	c := mustComposer(t, env, DefaultConfig())
	req := easyRequest(1)
	out, err := c.Probe(req)
	if err != nil || !out.Success() {
		t.Fatalf("probe: %v", err)
	}
	if err := c.Commit(out); err != nil {
		t.Fatal(err)
	}

	re := recomposeRequest(req, 2)
	re.QoSReq = qos.Vector{Delay: 1e-9, LossCost: qos.LossCost(0.999999)}
	reOut, err := c.ProbeRecompose(re, req.ID)
	if err != nil {
		t.Fatalf("recompose probe errored: %v", err)
	}
	if reOut.Success() {
		t.Fatal("impossible QoS produced a composition")
	}
	// Window closed: a fresh recompose of the same session may begin.
	if err := env.Ledger.BeginMigration(state.Owner(int64(3)), state.Owner(req.ID)); err != nil {
		t.Fatalf("window not closed after failed recompose: %v", err)
	}
	env.Ledger.EndMigration(state.Owner(int64(3)))
	if err := env.Ledger.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
