package harness

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/dist"
	"repro/internal/harness/clock"
	"repro/internal/metrics"
	"repro/internal/overlay"
	"repro/internal/qos"
	"repro/internal/state"
)

// phiSlack tolerates float noise between the two phi computations; a
// genuine bound violation is orders of magnitude larger.
const phiSlack = 1e-6

// replica is the reference composer both oracles run: core.AlgOptimal
// over the mesh and catalog of the engine under test and a private
// ledger, kept in lockstep by adopting exactly what the engine commits.
// Optimal's walk draws no randomness, so over identical committed state
// its decision is a function of that state.
type replica struct {
	composer *core.Composer
	ledger   *state.Ledger
	mesh     *overlay.Mesh
	catalog  *component.Catalog
}

// newReplica builds a replica over sys's substrate on clk. classes, when
// non-nil, overrides nodeCap per node; holds turns transient allocation
// on.
func newReplica(sys interface {
	Mesh() *overlay.Mesh
	Catalog() *component.Catalog
}, clk clock.Clock, nodeCap qos.Resources, classes []qos.Resources, phi core.PhiMode, holds bool) (*replica, error) {
	mesh, catalog := sys.Mesh(), sys.Catalog()
	counters := &metrics.Counters{}
	start := clk.Now()
	now := func() time.Duration { return clk.Now().Sub(start) }
	ledger := state.NewLedger(mesh, nodeCap, now)
	for node, capacity := range classes {
		if err := ledger.SetNodeCapacity(node, capacity); err != nil {
			return nil, err
		}
	}
	global, err := state.NewGlobal(ledger, mesh, state.DefaultGlobalConfig(), counters)
	if err != nil {
		return nil, err
	}
	env := core.Env{
		Mesh:     mesh,
		Catalog:  catalog,
		Registry: discovery.NewRegistry(catalog, mesh.NumNodes(), counters),
		Ledger:   ledger,
		Global:   global,
		Counters: counters,
		Now:      now,
		Rand:     rand.New(rand.NewSource(1)), // Optimal draws nothing from it
	}
	ccfg := core.DefaultConfig()
	ccfg.Algorithm = core.AlgOptimal
	ccfg.Phi = phi
	ccfg.TransientAllocation = holds
	composer, err := core.NewComposer(env, ccfg)
	if err != nil {
		return nil, err
	}
	return &replica{composer: composer, ledger: ledger, mesh: mesh, catalog: catalog}, nil
}

// adopt commits the engine's placement of req into the replica ledger:
// the same components, with a mesh route per graph edge. It commits the
// engine's choice, not the replica's, so ties broken differently still
// leave both ledgers equal.
func (r *replica) adopt(req *component.Request, comps []component.ComponentID, q qos.Vector, phi float64) error {
	cc := &core.Composition{Components: comps, QoS: q, Phi: phi}
	for _, e := range req.Graph.Edges {
		from := r.catalog.Component(comps[e.From]).Node
		to := r.catalog.Component(comps[e.To]).Node
		route, ok := r.mesh.RouteBetween(from, to)
		if !ok {
			return fmt.Errorf("request %d: no route %d->%d for committed composition", req.ID, from, to)
		}
		cc.Routes = append(cc.Routes, route)
	}
	if err := r.composer.Commit(&core.Outcome{Request: req, Best: cc}); err != nil {
		return fmt.Errorf("oracle commit of request %d: %w", req.ID, err)
	}
	return nil
}

// Oracle is the model-based reference for the dist engine: a replica
// over the cluster's substrate. Under a zero-fault, full-probing
// (alpha=1), sequential schedule the two systems see identical resource
// states, so for every request:
//
//   - admission parity: dist admits iff the exhaustive search finds a
//     qualified composition;
//   - the phi bound (Eq. 1): dist's chosen composition never beats the
//     exhaustive optimum.
//
// It holds nothing transiently: each request is probed and (when dist
// admitted it) committed before the next, so holds would only add
// expiry bookkeeping.
type Oracle struct{ *replica }

// NewOracle builds the reference composer over the cluster's substrate.
// The cluster must have been built by NewSim (its clock supplies the
// oracle's virtual time).
func NewOracle(s *Sim) (*Oracle, error) {
	r, err := newReplica(s.Cluster, s.Clock, s.cfg.NodeCapacity, nil, core.PhiSum, false)
	if err != nil {
		return nil, err
	}
	return &Oracle{r}, nil
}

// Check replays one resolved request through the exhaustive composer
// and verifies admission parity and the phi bound, then adopts the dist
// engine's actual decision so both systems enter the next request with
// identical committed state. comp is nil when dist rejected the request.
func (o *Oracle) Check(req *component.Request, owner int64, comp *dist.Composition) error {
	r := *req
	r.ID = owner
	outcome, err := o.composer.Probe(&r)
	if err != nil {
		return fmt.Errorf("oracle probe for request %d: %w", owner, err)
	}
	if comp == nil {
		if outcome.Success() {
			return fmt.Errorf("request %d: dist rejected but the exhaustive search found a qualified composition (phi=%v)",
				owner, outcome.Best.Phi)
		}
		return nil
	}
	if !outcome.Success() {
		return fmt.Errorf("request %d: dist admitted (phi=%v) but the exhaustive search found no qualified composition",
			owner, comp.Phi)
	}
	if comp.Phi < outcome.Best.Phi-phiSlack {
		return fmt.Errorf("request %d: dist phi %v beats the exhaustive bound %v",
			owner, comp.Phi, outcome.Best.Phi)
	}
	return o.adopt(&r, comp.Components, comp.QoS, comp.Phi)
}

// Release tears the session down in the oracle ledger, mirroring the
// dist-side release.
func (o *Oracle) Release(owner int64) { o.composer.Release(owner) }
