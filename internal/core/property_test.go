package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/component"
	"repro/internal/qos"
)

// randomRequest draws a request over the test environment's functions
// with moderately tight but usually feasible requirements.
func randomRequest(rng *rand.Rand, id int64, numFunctions, numNodes int) *component.Request {
	n := 2 + rng.Intn(3)
	perm := rng.Perm(numFunctions)[:n]
	fns := make([]component.FunctionID, n)
	for i, f := range perm {
		fns[i] = component.FunctionID(f)
	}
	req := &component.Request{
		ID:    id,
		Graph: component.NewPathGraph(fns),
		QoSReq: qos.Vector{
			Delay:    200 + rng.Float64()*600,
			LossCost: qos.LossCost(0.02 + rng.Float64()*0.1),
		},
		ResReq:       make([]qos.Resources, n),
		BandwidthReq: 50 + rng.Float64()*300,
		Client:       rng.Intn(numNodes),
		Duration:     time.Minute,
	}
	for i := range req.ResReq {
		req.ResReq[i] = qos.Resources{
			CPU:    3 + rng.Float64()*15,
			Memory: 20 + rng.Float64()*120,
		}
	}
	return req
}

// TestPropertyComposedRequestsAreSound: for random requests, any
// successful composition must satisfy all four optimization constraints
// (Eqs. 2-5), and after commit+release the ledger returns to its
// starting state.
func TestPropertyComposedRequestsAreSound(t *testing.T) {
	env, _ := testEnv(t, 31)
	c := mustComposer(t, env, DefaultConfig())
	rng := rand.New(rand.NewSource(99))

	f := func(seed int64) bool {
		req := randomRequest(rng, 1000+seed%1000+rng.Int63n(1<<40), env.Catalog.NumFunctions(), env.Mesh.NumNodes())
		out, err := c.Probe(req)
		if err != nil {
			t.Logf("probe error: %v", err)
			return false
		}
		if !out.Success() {
			return true // infeasible requests may fail; nothing to check
		}
		comp := out.Best
		// Eq. 2: function coverage.
		for pos, id := range comp.Components {
			if env.Catalog.Component(id).Function != req.Graph.Functions[pos] {
				t.Log("function mismatch")
				return false
			}
		}
		// Eq. 3: QoS within requirement.
		if !comp.QoS.Within(req.QoSReq) {
			t.Logf("QoS %v violates %v", comp.QoS, req.QoSReq)
			return false
		}
		// phi is positive and finite for feasible compositions.
		if comp.Phi <= 0 || math.IsInf(comp.Phi, 1) || math.IsNaN(comp.Phi) {
			t.Logf("phi = %v", comp.Phi)
			return false
		}
		// Eqs. 4-5 via the ledger: commit must succeed right after a
		// successful probe (residuals non-negative).
		if err := c.Commit(out); err != nil {
			t.Logf("commit failed: %v", err)
			return false
		}
		c.Release(req.ID)
		// Conservation: everything restored.
		for n := 0; n < env.Ledger.NumNodes(); n++ {
			if got := freeOn(env, n); got != (qos.Resources{CPU: 100, Memory: 1000}) {
				t.Logf("node %d not restored: %v", n, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyACPNeverOutperformsOptimalPhi: on a quiet system, Optimal's
// phi is a lower bound over every algorithm's choice for the same
// request.
func TestPropertyACPNeverOutperformsOptimalPhi(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		env, _ := testEnv(t, 32)
		req := randomRequest(rng, 1, env.Catalog.NumFunctions(), env.Mesh.NumNodes())

		phi := make(map[Algorithm]float64)
		for _, alg := range []Algorithm{AlgOptimal, AlgACP, AlgRP} {
			cfg := DefaultConfig()
			cfg.Algorithm = alg
			c := mustComposer(t, env, cfg)
			out, err := c.Probe(req)
			if err != nil {
				return false
			}
			if out.Success() {
				phi[alg] = out.Best.Phi
			} else {
				phi[alg] = math.Inf(1)
			}
			c.Abort(req.ID)
		}
		const eps = 1e-9
		return phi[AlgOptimal] <= phi[AlgACP]+eps && phi[AlgOptimal] <= phi[AlgRP]+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestPropertyProbeCountMonotoneInRatio: more probing never sends fewer
// probes on a fresh system. That is a property of the per-hop selection
// width M = ceil(alpha*k), so it is checked on SP, which selects as ACP
// does and walks the whole tree it selects. The bounded walk ACP runs does
// not have it — one more candidate per hop can hand the deputy a tighter
// incumbent sooner and cut more than it added — but it never sends more
// than the plain walk does at the same ratio.
func TestPropertyProbeCountMonotoneInRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := func(a, b uint8) bool {
		lo := 0.05 + float64(a%90)/100
		hi := lo + float64(b%20+1)/100
		if hi > 1 {
			hi = 1
		}
		env, _ := testEnv(t, 33)
		req := randomRequest(rng, 1, env.Catalog.NumFunctions(), env.Mesh.NumNodes())

		probes := func(alg Algorithm, alpha float64) int {
			cfg := DefaultConfig()
			cfg.Algorithm = alg
			cfg.ProbingRatio = alpha
			c := mustComposer(t, env, cfg)
			out, err := c.Probe(req)
			if err != nil {
				return -1
			}
			c.Abort(req.ID)
			return out.ProbesSent
		}
		pLo := probes(AlgSP, lo)
		pHi := probes(AlgSP, hi)
		return pLo >= 0 && pHi >= pLo && probes(AlgACP, lo) <= pLo && probes(AlgACP, hi) <= pHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFailureReleasesEverything: failed probes must leave no
// trace in the ledger regardless of request shape.
func TestPropertyFailureReleasesEverything(t *testing.T) {
	env, _ := testEnv(t, 34)
	c := mustComposer(t, env, DefaultConfig())
	rng := rand.New(rand.NewSource(5))

	f := func(seed int64) bool {
		req := randomRequest(rng, 5000+rng.Int63n(1<<40), env.Catalog.NumFunctions(), env.Mesh.NumNodes())
		// Make it infeasible half the time via absurd bandwidth.
		if rng.Intn(2) == 0 {
			req.BandwidthReq = 1e12
		}
		out, err := c.Probe(req)
		if err != nil {
			return false
		}
		if out.Success() {
			c.Abort(req.ID)
		}
		for n := 0; n < env.Ledger.NumNodes(); n++ {
			if got := freeOn(env, n); got != (qos.Resources{CPU: 100, Memory: 1000}) {
				return false
			}
		}
		for l := 0; l < env.Ledger.NumLinks(); l++ {
			if env.Ledger.LinkAvailable(l) != env.Ledger.LinkCapacity(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertySecurityConstraintRespected: compositions for secure
// requests never include components below the demanded level.
func TestPropertySecurityConstraintRespected(t *testing.T) {
	env, _ := testEnv(t, 35)
	c := mustComposer(t, env, DefaultConfig())
	rng := rand.New(rand.NewSource(3))

	f := func(seed int64) bool {
		req := randomRequest(rng, 9000+rng.Int63n(1<<40), env.Catalog.NumFunctions(), env.Mesh.NumNodes())
		req.MinSecurity = 1 + rng.Intn(3)
		out, err := c.Probe(req)
		if err != nil {
			return false
		}
		if !out.Success() {
			return true
		}
		defer c.Abort(req.ID)
		for _, id := range out.Best.Components {
			if env.Catalog.Component(id).Security < req.MinSecurity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
