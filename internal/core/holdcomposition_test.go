package core

import (
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/overlay"
	"repro/internal/qos"
	"repro/internal/state"
)

// crossNodePair finds one candidate per function 0 and 1 placed on
// distinct overlay nodes, so a two-position composition demands
// resources on two separate nodes.
func crossNodePair(t *testing.T, env Env) (c0, c1 component.ComponentID) {
	t.Helper()
	for _, a := range env.Catalog.Candidates(0) {
		for _, b := range env.Catalog.Candidates(1) {
			if env.Catalog.Component(a).Node != env.Catalog.Component(b).Node {
				return a, b
			}
		}
	}
	t.Fatal("no cross-node candidate pair in test catalog")
	return 0, 0
}

// TestHoldCompositionRollsBackPartialHolds is the regression for the
// partial-hold leak in holdComposition: when a mid-sequence HoldNode or
// HoldLink fails, every hold placed earlier in the same call must be
// released before reporting failure. Previously those holds leaked
// until the caller's owner-level release — the same shape as the
// extendProbe leak, and exactly what the acpholdpair analyzer flags.
func TestHoldCompositionRollsBackPartialHolds(t *testing.T) {
	t.Run("node hold fails", func(t *testing.T) {
		env, _ := testEnv(t, 7)
		c := mustComposer(t, env, DefaultConfig())
		c0, c1 := crossNodePair(t, env)
		n0 := env.Catalog.Component(c0).Node
		n1 := env.Catalog.Component(c1).Node

		// The first position fits; the second demands five times the
		// node capacity, so its HoldNode must fail after n0 is held.
		req := &component.Request{
			ID:     41,
			Graph:  component.NewPathGraph([]component.FunctionID{0, 1}),
			QoSReq: qos.Vector{Delay: 1e6, LossCost: qos.LossCost(0.9)},
			ResReq: []qos.Resources{
				{CPU: 10, Memory: 100},
				{CPU: 500, Memory: 100},
			},
			BandwidthReq: 10,
			Client:       0,
			Duration:     time.Minute,
		}
		c.walk = walkState{req: req, owner: state.Owner(req.ID), expires: env.Now() + time.Minute}

		before0 := freeOn(env, n0)
		before1 := freeOn(env, n1)
		comp := &Composition{Components: []component.ComponentID{c0, c1}}
		if c.holdComposition(comp) {
			t.Fatal("holdComposition succeeded despite oversized second demand")
		}
		if got := freeOn(env, n0); got != before0 {
			t.Errorf("node %d availability %+v after failed holdComposition, want %+v (hold leaked)",
				n0, got, before0)
		}
		if got := freeOn(env, n1); got != before1 {
			t.Errorf("node %d availability %+v after failed holdComposition, want %+v",
				n1, got, before1)
		}
		if err := env.Ledger.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("link hold fails", func(t *testing.T) {
		env, _ := testEnv(t, 7)
		c := mustComposer(t, env, DefaultConfig())
		c0, c1 := crossNodePair(t, env)
		n0 := env.Catalog.Component(c0).Node
		n1 := env.Catalog.Component(c1).Node

		// Both node demands fit, but the bandwidth demand exceeds any
		// link's capacity, so the first HoldLink fails after BOTH node
		// holds are placed.
		req := &component.Request{
			ID:     43,
			Graph:  component.NewPathGraph([]component.FunctionID{0, 1}),
			QoSReq: qos.Vector{Delay: 1e6, LossCost: qos.LossCost(0.9)},
			ResReq: []qos.Resources{
				{CPU: 10, Memory: 100},
				{CPU: 10, Memory: 100},
			},
			BandwidthReq: 1e9,
			Client:       0,
			Duration:     time.Minute,
		}
		c.walk = walkState{req: req, owner: state.Owner(req.ID), expires: env.Now() + time.Minute}

		rt := c.route(n0, n1)
		if rt.CoLocated || len(rt.Links) == 0 {
			t.Fatalf("route %d->%d has no links to contend on", n0, n1)
		}
		before0 := freeOn(env, n0)
		before1 := freeOn(env, n1)
		beforeLink := env.Ledger.LinkAvailable(rt.Links[0])

		comp := &Composition{
			Components: []component.ComponentID{c0, c1},
			Routes:     []overlay.Route{rt},
		}
		if c.holdComposition(comp) {
			t.Fatal("holdComposition succeeded despite oversized bandwidth demand")
		}
		if got := freeOn(env, n0); got != before0 {
			t.Errorf("node %d availability %+v after failed holdComposition, want %+v (hold leaked)",
				n0, got, before0)
		}
		if got := freeOn(env, n1); got != before1 {
			t.Errorf("node %d availability %+v after failed holdComposition, want %+v (hold leaked)",
				n1, got, before1)
		}
		if got := env.Ledger.LinkAvailable(rt.Links[0]); got != beforeLink {
			t.Errorf("link %d availability %v after failed holdComposition, want %v",
				rt.Links[0], got, beforeLink)
		}
		if err := env.Ledger.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
