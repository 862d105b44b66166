package core

import (
	"math/rand"
	"testing"

	"repro/internal/component"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/qos"
	"repro/internal/state"
)

// beginPlannedWalk starts a walk on req the way Probe does: it validates
// the request into the composer's plan, then resets the scratch.
func beginPlannedWalk(t testing.TB, c *Composer, req *component.Request) {
	t.Helper()
	if err := req.Check(&c.scratch.plan); err != nil {
		t.Fatal(err)
	}
	c.beginWalk(req)
}

// TestSelectCandidatesSteadyStateAllocations pins the per-hop candidate
// selection at zero allocations once the composer's scratch buffers are
// warm: the ranking, pruning, and shuffling all happen in reused slices.
func TestSelectCandidatesSteadyStateAllocations(t *testing.T) {
	env, _ := testEnv(t, 6)
	for _, cfg := range []Config{DefaultConfig(), func() Config {
		c := DefaultConfig()
		c.Algorithm = AlgRP
		c.Selection = SelectRandom
		return c
	}()} {
		c := mustComposer(t, env, cfg)
		req := easyRequest(1)
		beginPlannedWalk(t, c, req)
		cands := c.lookup(req.Graph.Functions[0])
		if len(cands) == 0 {
			t.Fatal("no candidates")
		}
		run := func() { c.selectCandidates(hopChild{}, 0, cands) }
		run() // size the scratch buffers
		if allocs := testing.AllocsPerRun(100, run); allocs > 0 {
			t.Errorf("%s selectCandidates allocates %.1f per call in steady state, want 0", cfg.Algorithm, allocs)
		}
		c.env.Ledger.ReleaseOwner(state.Owner(req.ID))
	}
}

// TestProbeHopSteadyStateAllocations pins one full probe hop — candidate
// selection, precise conformance checks, and transient hold placement —
// at zero steady-state allocations beyond the per-walk function lookup.
func TestProbeHopSteadyStateAllocations(t *testing.T) {
	env, _ := testEnv(t, 7)
	c := mustComposer(t, env, DefaultConfig())
	req := easyRequest(1)
	out := &Outcome{Request: req}
	run := func() {
		beginPlannedWalk(t, c, req)
		if children := c.extendProbe(out, hopChild{}, 0, c.walk.order[0], true); len(children) == 0 {
			t.Fatal("source hop produced no children")
		}
		c.env.Ledger.ReleaseOwner(state.Owner(req.ID))
	}
	run() // size the scratch buffers, ledger hold slots, lookup cache
	// The per-epoch discovery lookup may allocate (it returns the
	// catalog's slice today, but the registry is allowed to filter);
	// everything else must come from scratch.
	const maxAllocs = 2
	if allocs := testing.AllocsPerRun(100, run); allocs > maxAllocs {
		t.Errorf("probe hop allocates %.1f per call in steady state, want <= %d", allocs, maxAllocs)
	}
}

// steadyRequests is the request mix of the steady-state walk guards.
func steadyRequests(env Env) []*component.Request {
	reqRng := rand.New(rand.NewSource(42))
	reqs := make([]*component.Request, 8)
	for i := range reqs {
		reqs[i] = randomRequest(reqRng, int64(i+1), 10, env.Mesh.NumNodes())
	}
	return reqs
}

// probeAllocsPerRequest is what one walk of reqs allocates per request
// once the composer's scratch is warm.
func probeAllocsPerRequest(t *testing.T, c *Composer, reqs []*component.Request) float64 {
	probeAll := func() {
		for _, req := range reqs {
			if _, err := c.Probe(req); err != nil {
				t.Fatal(err)
			}
			c.Abort(req.ID)
		}
	}
	probeAll() // size the scratch buffers
	return testing.AllocsPerRun(5, probeAll) / float64(len(reqs))
}

// TestProbeSteadyStateAllocations bounds a whole probe walk. What a walk
// allocates is what it hands back: the Outcome and the winning
// composition's deep copy (three objects). Validation builds the walk plan
// in the composer's scratch, so the graph costs nothing per request; the
// per-child prefix copies and per-walk maps of earlier versions cost
// thousands of allocations per walk on this workload.
func TestProbeSteadyStateAllocations(t *testing.T) {
	env, _ := testEnv(t, 8)
	c := mustComposer(t, env, DefaultConfig())
	reqs := steadyRequests(env)
	// 4.0 measured on this workload (30.25 when validation, the
	// topological sort and the predecessor lists were per request). The
	// availability view lives in two flat composer-lifetime arrays and
	// must not add to it.
	const maxAllocsPerProbe = 5
	if allocs := probeAllocsPerRequest(t, c, reqs); allocs > maxAllocsPerProbe {
		t.Errorf("probe walk allocates %.1f per request in steady state, want <= %d", allocs, maxAllocsPerProbe)
	}

	// The view itself: a new walk's first read of every node and every
	// overlay link — and the repeat reads after it — allocate nothing.
	readAll := func() {
		beginPlannedWalk(t, c, reqs[0])
		for pass := 0; pass < 2; pass++ {
			for n := 0; n < env.Mesh.NumNodes(); n++ {
				c.nodeAvail(n)
			}
			for k := 0; k < env.Mesh.NumLinks(); k++ {
				c.linkAvail(k)
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, readAll); allocs > 0 {
		t.Errorf("the availability view allocates %.1f per walk, want 0", allocs)
	}

	// The hold marks likewise: a new walk starts with none, and marking
	// and asking at every position over a routed hop allocate nothing.
	var routed []overlay.Route
	for n := 1; n < env.Mesh.NumNodes() && len(routed) == 0; n++ {
		if r, ok := env.Mesh.RouteBetween(0, n); ok && len(r.Links) > 0 {
			routed = []overlay.Route{r}
		}
	}
	markAll := func() {
		beginPlannedWalk(t, c, reqs[0])
		for pos := 0; pos < reqs[0].Graph.NumPositions(); pos++ {
			for n := 0; n < env.Mesh.NumNodes(); n++ {
				if c.hopHeld(pos, n, routed) {
					t.Fatalf("position %d node %d is marked held before any hop", pos, n)
				}
				c.markHop(pos, n, routed)
				if !c.hopHeld(pos, n, routed) {
					t.Fatalf("position %d node %d is not marked after markHop", pos, n)
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, markAll); allocs > 0 {
		t.Errorf("the hold marks allocate %.1f per walk, want 0", allocs)
	}
}

// TestTracedProbeSteadyStateAllocations: tracing costs a walk no
// allocations. It is the walk above with a live tracer and a subscriber
// attached, so every span, prune, rank-cut and hold event is built and
// delivered, under each selection policy. Each policy is held to what the
// same walk allocates untraced (4.0 per request for ACP both ways).
func TestTracedProbeSteadyStateAllocations(t *testing.T) {
	for _, alg := range []Algorithm{AlgACP, AlgOptimal, AlgSP, AlgRP} {
		cfg := DefaultConfig()
		cfg.Algorithm = alg
		env, _ := testEnv(t, 8)
		untraced := probeAllocsPerRequest(t, mustComposer(t, env, cfg), steadyRequests(env))

		env, _ = testEnv(t, 8)
		env.Tracer = obs.NewLive()
		sub := env.Tracer.Subscribe(1 << 16)
		traced := probeAllocsPerRequest(t, mustComposer(t, env, cfg), steadyRequests(env))
		if sub.Drops() == 0 && len(sub.Drain()) == 0 {
			t.Fatalf("%s: the subscriber saw no events", alg)
		}
		sub.Close()
		t.Logf("%s: %.2f allocations per request untraced, %.2f traced", alg, untraced, traced)
		if traced > untraced {
			t.Errorf("%s: a traced walk allocates %.1f per request, want <= %.1f (untraced)", alg, traced, untraced)
		}
	}
}

// TestKernelSteadyStateAllocations drives the kernel the way the dist
// engine does — no composer, no walk: a partial assignment, a coarse view
// held in a slice, routes resolved from the mesh (up front: RouteBetween
// builds its link list per call), and the availabilities a probe carried
// back — and pins selection, stacking and Eq. 1 each at zero allocations
// once the scratch is warm.
func TestKernelSteadyStateAllocations(t *testing.T) {
	env, _ := testEnv(t, 9)
	k := NewKernel(env.Catalog)
	req := easyRequest(1)

	// A complete assignment: the first candidate of every function. The
	// selection below treats its first position as already assigned.
	assign := make([]component.ComponentID, req.Graph.NumPositions())
	for pos, fn := range req.Graph.Functions {
		assign[pos] = env.Catalog.Candidates(fn)[0]
	}
	var routes []overlay.Route
	for _, e := range req.Graph.Edges {
		r, ok := env.Mesh.RouteBetween(env.Catalog.Component(assign[e.From]).Node, env.Catalog.Component(assign[e.To]).Node)
		if !ok {
			t.Fatal("unroutable edge")
		}
		routes = append(routes, r)
	}
	view := make([]qos.Resources, env.Mesh.NumNodes())
	for i := range view {
		view[i] = qos.Resources{CPU: 100 - float64(i), Memory: 1000}
	}
	carried := make([]qos.Resources, len(assign)) // one snapshot per hop
	for i := range carried {
		carried[i] = qos.Resources{CPU: 90, Memory: 900}
	}

	candidates := env.Catalog.Candidates(req.Graph.Functions[1])
	from := env.Catalog.Component(assign[0]).Node
	reach := make([]overlay.Route, len(candidates)) // assigned predecessor -> candidate
	for i, id := range candidates {
		reach[i], _ = env.Mesh.RouteBetween(from, env.Catalog.Component(id).Node)
	}
	var picked int
	selection := func() {
		hop := Hop{Req: req, Pos: 1, Tracer: env.Tracer}
		for i, id := range candidates {
			cand := env.Catalog.Component(id)
			k.Consider(&hop, cand, reach[i].QoS.Add(cand.QoS), view[cand.Node], staticBottleneck(env.Mesh, reach[i]))
		}
		picked = len(k.Select(&hop, SelectRiskThenCongestion, 0.5, len(candidates)))
	}
	stacking := func() { k.Stack(req, assign, routes) }
	var phi float64
	scoring := func() {
		nodes, links := k.Stack(req, assign, routes)
		for pos, id := range assign {
			host := env.Catalog.Component(id).Node
			for j := range nodes {
				if nodes[j].Node == host {
					nodes[j].Avail = carried[pos]
				}
			}
		}
		for j := range links {
			links[j].Avail = env.Mesh.Link(links[j].Link).Capacity
		}
		var ok bool
		if phi, ok = k.Score(req, assign, routes, PhiSum); !ok {
			t.Fatal("a composition that fits was refused")
		}
	}
	for _, step := range []struct {
		name string
		run  func()
	}{{"selection", selection}, {"stacking", stacking}, {"Eq. 1", scoring}} {
		step.run() // size the scratch buffers
		if allocs := testing.AllocsPerRun(100, step.run); allocs > 0 {
			t.Errorf("kernel %s allocates %.1f per call in steady state, want 0", step.name, allocs)
		}
	}
	if want := probeWidth(0.5, len(candidates)); picked != want {
		t.Errorf("selection kept %d of %d candidates, want %d", picked, len(candidates), want)
	}
	if phi <= 0 {
		t.Errorf("phi = %v", phi)
	}
}
