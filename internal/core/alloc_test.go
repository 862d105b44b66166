package core

import (
	"math/rand"
	"testing"

	"repro/internal/component"
	"repro/internal/state"
)

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
		c.beginWalk(req)
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
	order, err := req.Graph.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	out := &Outcome{Request: req}
	run := func() {
		c.beginWalk(req)
		if children := c.extendProbe(out, hopChild{}, 0, order[0], true); len(children) == 0 {
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

// TestProbeSteadyStateAllocations bounds a whole probe walk. A walk
// cannot be literally allocation-free (the Outcome, the winning
// composition's deep copy, and the per-request graph traversal remain),
// but the former per-child prefix copies and per-walk maps are gone; the
// old implementation spent thousands of allocations per walk on this
// workload.
func TestProbeSteadyStateAllocations(t *testing.T) {
	env, _ := testEnv(t, 8)
	c := mustComposer(t, env, DefaultConfig())
	reqRng := rand.New(rand.NewSource(42))
	reqs := make([]*component.Request, 8)
	for i := range reqs {
		reqs[i] = randomRequest(reqRng, int64(i+1), 10, env.Mesh.NumNodes())
	}
	probeAll := func() {
		for _, req := range reqs {
			if _, err := c.Probe(req); err != nil {
				t.Fatal(err)
			}
			c.Abort(req.ID)
		}
	}
	probeAll() // size the scratch buffers
	// 30.25 measured on this workload, with and without the walk's
	// availability view: the view lives in two flat composer-lifetime
	// arrays and must not add to it.
	const maxAllocsPerProbe = 34
	allocs := testing.AllocsPerRun(5, probeAll) / float64(len(reqs))
	if allocs > maxAllocsPerProbe {
		t.Errorf("probe walk allocates %.1f per request in steady state, want <= %d", allocs, maxAllocsPerProbe)
	}

	// The view itself: a new walk's first read of every node and every
	// overlay link — and the repeat reads after it — allocate nothing.
	readAll := func() {
		c.beginWalk(reqs[0])
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
}
