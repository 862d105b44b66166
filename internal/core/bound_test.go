package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/discovery"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/qos"
	"repro/internal/state"
	"repro/internal/topology"
)

// boundMesh builds a 12-node overlay: with four functions and two
// components per node every function has six candidates.
func boundMesh(t *testing.T, seed int64) *overlay.Mesh {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tcfg := topology.DefaultConfig()
	tcfg.Nodes = 200
	g, err := topology.Generate(tcfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	ocfg := overlay.DefaultConfig()
	ocfg.Nodes = 12
	mesh, err := overlay.Build(g, ocfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	return mesh
}

// boundEnv wires a composer environment over mesh and cat; heterogeneous
// draws node capacities between 0.6 and 1.4 of the default from rng.
func boundEnv(t *testing.T, mesh *overlay.Mesh, cat *component.Catalog, rng *rand.Rand, heterogeneous bool) Env {
	t.Helper()
	clk := &testClock{}
	counters := &metrics.Counters{}
	ledger := state.NewLedger(mesh, qos.Resources{CPU: 100, Memory: 1000}, clk.Now)
	for n := 0; heterogeneous && n < mesh.NumNodes(); n++ {
		if err := ledger.SetNodeCapacity(n, qos.Resources{CPU: 100, Memory: 1000}.Scale(0.6+0.8*rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	global, err := state.NewGlobal(ledger, mesh, state.DefaultGlobalConfig(), counters)
	if err != nil {
		t.Fatal(err)
	}
	return Env{
		Mesh:     mesh,
		Catalog:  cat,
		Registry: discovery.NewRegistry(cat, mesh.NumNodes(), counters),
		Ledger:   ledger,
		Global:   global,
		Counters: counters,
		Now:      clk.Now,
		Rand:     rng,
	}
}

// bruteForce is the oracle: every assignment of one candidate per
// position, in the order the unbounded walk visits them (positions in
// topological order, candidates in discovery order), checked against the
// QoS requirement and scored by Kernel.Stack/Score alone — no probe
// tree, no per-hop checks, no bound. It returns the first phi-minimal
// qualified assignment and how many assignments met the QoS requirement.
func bruteForce(t *testing.T, env Env, req *component.Request, mode PhiMode) (best []component.ComponentID, phi float64, complete int) {
	t.Helper()
	var plan component.Plan
	if err := plan.Build(req.Graph); err != nil {
		t.Fatal(err)
	}
	order := plan.Order
	k := NewKernel(env.Catalog)
	owner := state.Owner(req.ID)
	assign := make([]component.ComponentID, len(order))
	routes := make([]overlay.Route, len(req.Graph.Edges))
	var rec func(i int)
	rec = func(i int) {
		if i < len(order) {
			for _, id := range env.Catalog.Candidates(req.Graph.Functions[order[i]]) {
				assign[order[i]] = id
				rec(i + 1)
			}
			return
		}
		var acc qos.Vector
		for _, id := range assign {
			acc = acc.Add(env.Catalog.Component(id).QoS)
		}
		for e, edge := range req.Graph.Edges {
			r, ok := env.Mesh.RouteBetween(env.Catalog.Component(assign[edge.From]).Node, env.Catalog.Component(assign[edge.To]).Node)
			if !ok {
				return
			}
			routes[e] = r
			acc = acc.Add(r.QoS)
		}
		if acc.MaxRatio(req.QoSReq) > 1 {
			return
		}
		complete++
		nodes, links := k.Stack(req, assign, routes)
		for i := range nodes {
			nodes[i].Avail = env.Ledger.NodeAvailableForAt(env.Now(), owner, nodes[i].Node)
		}
		for i := range links {
			links[i].Avail = env.Ledger.LinkAvailableForAt(env.Now(), owner, links[i].Link)
		}
		if got, ok := k.Score(req, assign, routes, mode); ok && (best == nil || got < phi) {
			best, phi = slices.Clone(assign), got
		}
	}
	rec(0)
	return best, phi, complete
}

// boundInstance is one seeded case of the oracle sweep: a loaded substrate
// and a request over it.
type boundInstance struct {
	env   Env
	req   *component.Request
	mode  PhiMode
	shape string
	tight bool
	// lagging counts the nodes whose committed availability is above their
	// report: where only the threshold term keeps a ceiling a bound.
	lagging int
}

// newBoundInstance builds instance seed over mesh. Even instances run
// tight and without transient allocation: node loads reach 95 % and
// demands are large, so stacking two components on a node often does not
// fit and Score's fit check decides. Odd instances hold as they go and
// stay roomy: with holds on, a hold refused because the same walk already
// holds the node for another position depends on the order of the walk
// (it did before the bound too), which an enumeration of compositions
// cannot model; loads and demands there leave every node and link room
// for all of one request's holds at once.
//
// With lag, the coarse state is walked away from the truth in both
// directions before the request arrives: every node first takes an extra
// session of its own — under the update threshold on some nodes, over it
// on others — then the common load is committed on top (which writes the
// reports), and then half of the extras are released. A small extra
// released leaves the report below the truth by less than the threshold;
// a small extra kept, where the common load was light, leaves it above; a
// large one released is rewritten.
func newBoundInstance(t *testing.T, mesh *overlay.Mesh, seed int64, lag bool) boundInstance {
	t.Helper()
	rng := rand.New(rand.NewSource(7000 + seed))
	tight := seed%2 == 0
	pcfg := component.DefaultPlacementConfig()
	pcfg.NumFunctions = 4
	pcfg.ComponentsPerNode = 2
	cat, err := component.Place(mesh.NumNodes(), pcfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	env := boundEnv(t, mesh, cat, rng, true)

	extra := make([]qos.Resources, mesh.NumNodes())
	for n := 0; lag && n < mesh.NumNodes(); n++ {
		share := 0.02 + 0.07*rng.Float64() // under the 10 % threshold
		if rng.Intn(3) == 0 {
			share = 0.11 + 0.1*rng.Float64() // over it
		}
		extra[n] = env.Ledger.NodeCapacity(n).Scale(share)
		if err := env.Ledger.CommitSession(state.Owner(9100+n), map[int]qos.Resources{n: extra[n]}, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Load: committed sessions and a bystander's live holds.
	maxLoad, demand := 0.35, 0.06
	if tight {
		maxLoad, demand = 0.95, 0.4
	}
	nodeLoad := make(map[int]qos.Resources)
	for n := 0; n < mesh.NumNodes(); n++ {
		nodeLoad[n] = env.Ledger.NodeCapacity(n).Sub(extra[n]).Scale(maxLoad * rng.Float64())
	}
	linkLoad := make(map[int]float64)
	minLink := math.Inf(1)
	for l := 0; l < env.Ledger.NumLinks(); l++ {
		linkLoad[l] = env.Ledger.LinkCapacity(l) * maxLoad * rng.Float64()
		minLink = min(minLink, env.Ledger.LinkCapacity(l))
	}
	if err := env.Ledger.CommitSession(9001, nodeLoad, linkLoad); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		n := rng.Intn(mesh.NumNodes())
		env.Ledger.HoldNode(9002, j, n, env.Ledger.NodeCapacity(n).Scale(0.05), time.Hour)
	}
	lagging := 0
	var rep state.Replica
	for n := 0; lag && n < mesh.NumNodes(); n++ {
		if rng.Intn(2) == 0 {
			env.Ledger.ReleaseSession(state.Owner(9100 + n))
		}
		env.Global.Refresh(&rep)
		if truth, report := env.Ledger.NodeCommittedAvailable(n), rep.Nodes[n]; truth.CPU > report.CPU {
			lagging++
		}
	}

	// Request: a 2-4 position path or the four-position diamond.
	fns := make([]component.FunctionID, 0, 4)
	for _, f := range rng.Perm(4) {
		fns = append(fns, component.FunctionID(f))
	}
	shape := "path"
	graph := component.NewPathGraph(fns[:2+rng.Intn(3)])
	if seed%3 == 0 {
		shape = "dag"
		if graph, err = component.NewBranchGraph(fns[0], fns[1:2], fns[2:3], fns[3]); err != nil {
			t.Fatal(err)
		}
	}
	req := &component.Request{
		ID:           seed + 1,
		Graph:        graph,
		QoSReq:       qos.Vector{Delay: 150 + 120*float64(graph.NumPositions())*rng.Float64(), LossCost: qos.LossCost(0.2)},
		ResReq:       make([]qos.Resources, graph.NumPositions()),
		BandwidthReq: minLink * demand * (0.3 + rng.Float64()),
		Client:       rng.Intn(mesh.NumNodes()),
		Duration:     time.Minute,
		Weight:       0.5 + 3*rng.Float64(),
	}
	for p := range req.ResReq {
		req.ResReq[p] = qos.Resources{CPU: 100 * demand * (0.3 + rng.Float64()), Memory: 1000 * demand * (0.3 + rng.Float64())}
	}
	return boundInstance{env: env, req: req, mode: PhiMode(seed / 3 % 3), shape: shape, tight: tight, lagging: lagging}
}

// optimal is the composer configuration the oracle sweeps walk under.
func (in boundInstance) optimal() Config {
	cfg := DefaultConfig()
	cfg.Algorithm = AlgOptimal
	cfg.Phi = in.mode
	cfg.TransientAllocation = !in.tight
	return cfg
}

// TestBoundedOptimalAgreesWithBruteForce: on small loaded instances the
// branch-and-bound walk must pick exactly the composition an exhaustive
// enumeration picks — same components, same phi bits, same ties — under
// all three objectives, on paths and DAGs, over nodes of unequal capacity,
// with reports that are exact and with reports that lag the truth in both
// directions (the floor is built from them, see newBoundInstance).
func TestBoundedOptimalAgreesWithBruteForce(t *testing.T) {
	const meshes, perMesh = 8, 30
	for _, lag := range []bool{false, true} {
		var instances, admitted, enumerated, returned, lagging int
		shapes := map[string]int{}
		for m := int64(0); m < meshes; m++ {
			mesh := boundMesh(t, 500+m)
			for i := int64(0); i < perMesh; i++ {
				seed := m*perMesh + i
				in := newBoundInstance(t, mesh, seed, lag)
				want, wantPhi, complete := bruteForce(t, in.env, in.req, in.mode)
				c := mustComposer(t, in.env, in.optimal())
				out, err := c.Probe(in.req)
				if err != nil {
					t.Fatal(err)
				}
				if !c.walk.coarseFloor {
					t.Fatalf("lag=%v instance %d: a single-caller walk left its ceilings", lag, seed)
				}
				instances++
				lagging += in.lagging
				enumerated += complete
				returned += out.PathsReturned
				if out.PathsReturned > complete {
					t.Fatalf("lag=%v instance %d: %d probes returned, only %d assignments meet the QoS requirement", lag, seed, out.PathsReturned, complete)
				}
				if out.Success() != (want != nil) {
					t.Fatalf("lag=%v instance %d (%s, %v, tight=%v): walk success=%v, brute force found %v", lag, seed, in.shape, in.mode, in.tight, out.Success(), want)
				}
				if want == nil {
					continue
				}
				admitted++
				shapes[in.shape+"/"+in.mode.String()]++
				if !slices.Equal(out.Best.Components, want) || math.Float64bits(out.Best.Phi) != math.Float64bits(wantPhi) {
					t.Fatalf("lag=%v instance %d (%s, %v, tight=%v): walk chose %v phi %x, brute force %v phi %x",
						lag, seed, in.shape, in.mode, in.tight, out.Best.Components, out.Best.Phi, want, wantPhi)
				}
			}
		}
		if instances < 200 || admitted < instances/2 {
			t.Errorf("lag=%v: %d instances, %d admitted: the oracle is under-exercised", lag, instances, admitted)
		}
		for _, shape := range []string{"path", "dag"} {
			for mode := PhiSum; mode <= PhiBottleneck; mode++ {
				if shapes[shape+"/"+mode.String()] < 8 {
					t.Errorf("lag=%v: only %d admitted %s instances under %v", lag, shapes[shape+"/"+mode.String()], shape, mode)
				}
			}
		}
		// The walk under test must actually have been bounded.
		if returned*2 > enumerated {
			t.Errorf("lag=%v: %d of %d QoS-feasible assignments still returned: the bound barely fired", lag, returned, enumerated)
		}
		// And with lag, on reports the truth has risen above.
		if lag && lagging < 2*instances {
			t.Errorf("%d nodes lag their report over %d instances: the threshold term is barely exercised", lagging, instances)
		}
		t.Logf("lag=%v: %d instances, %d admitted, %d of %d feasible assignments returned, %d lagging nodes", lag, instances, admitted, returned, enumerated, lagging)
	}
}

// TestRecomposeWalkFloorsAtCapacity: a re-composition reads its source
// session's committed share as available (make-before-break), which the
// coarse state books as used — so on the nodes the session sits on, what
// the walk reads is above the ceiling, and a floor built from ceilings
// would overstate what the unassigned positions must cost. The walk of a
// ProbeRecompose therefore floors at capacity, and picks what the
// enumerator — reading through the same open window — picks.
func TestRecomposeWalkFloorsAtCapacity(t *testing.T) {
	var instances, recomposed, aboveCeiling int
	for m := int64(0); m < 4; m++ {
		mesh := boundMesh(t, 500+m)
		for i := int64(0); i < 30; i++ {
			in := newBoundInstance(t, mesh, m*30+i, i%2 == 1)
			c := mustComposer(t, in.env, in.optimal())
			first, err := c.Probe(in.req)
			if err != nil {
				t.Fatal(err)
			}
			if !first.Success() {
				continue
			}
			if err := c.Commit(first); err != nil {
				t.Fatal(err)
			}
			instances++
			ledger := in.env.Ledger
			re := recomposeRequest(in.req, in.req.ID+10_000)
			prev, probe := state.Owner(in.req.ID), state.Owner(re.ID)

			// The oracle, and the premise, read through a window of their own.
			if err := ledger.BeginMigration(probe, prev); err != nil {
				t.Fatal(err)
			}
			want, wantPhi, _ := bruteForce(t, in.env, re, in.mode)
			var rep state.Replica
			in.env.Global.Refresh(&rep)
			for n := 0; n < mesh.NumNodes(); n++ {
				if !rep.Ceiling(n, ledger.NodeCapacity(n)).Covers(ledger.NodeAvailableForAt(in.env.Now(), probe, n)) {
					aboveCeiling++
				}
			}
			ledger.EndMigration(probe)

			out, err := c.ProbeRecompose(re, in.req.ID)
			if err != nil {
				t.Fatal(err)
			}
			if c.walk.coarseFloor {
				t.Fatalf("instance %d: the re-composition walk floored at the ceilings", in.req.ID-1)
			}
			if out.Success() != (want != nil) {
				t.Fatalf("instance %d: recompose success=%v, brute force found %v", in.req.ID-1, out.Success(), want)
			}
			if want == nil {
				continue
			}
			recomposed++
			if !slices.Equal(out.Best.Components, want) || math.Float64bits(out.Best.Phi) != math.Float64bits(wantPhi) {
				t.Fatalf("instance %d (%s, %v): recompose chose %v phi %x, brute force %v phi %x",
					in.req.ID-1, in.shape, in.mode, out.Best.Components, out.Best.Phi, want, wantPhi)
			}
			c.AbortRecompose(re.ID)
		}
	}
	if recomposed < 80 || aboveCeiling < recomposed {
		t.Errorf("%d sessions, %d re-composed, %d node readings above their ceiling: the case is under-exercised", instances, recomposed, aboveCeiling)
	}
	t.Logf("%d sessions, %d re-composed, %d node readings above their ceiling", instances, recomposed, aboveCeiling)
}

// TestOverrunFallsBackToCapacityFloor releases a session between the
// walk's Refresh of its replica and its first read of the ledger — what a
// second caller's Close does to a walk in flight — so that the nodes the
// session sat on read above the ceilings the walk holds. The walk must
// notice at the first such node, finish on the capacity floor, count the
// overrun, and decide as the enumerator does on the state it read.
func TestOverrunFallsBackToCapacityFloor(t *testing.T) {
	for seed := int64(0); seed < 12; seed += 2 { // tight instances: no holds, so the oracle can run after the walk
		in := newBoundInstance(t, boundMesh(t, 500), seed, false)
		ledger := in.env.Ledger
		// Two fifths of what every node has left: past the update threshold
		// wherever the node is less than three quarters full.
		surge := make(map[int]qos.Resources)
		for n := 0; n < ledger.NumNodes(); n++ {
			surge[n] = freeOn(in.env, n).Scale(0.4)
		}
		if err := ledger.CommitSession(9003, surge, nil); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		in.env.Obs = reg
		now := in.env.Now
		in.env.Now = func() time.Duration {
			ledger.ReleaseSession(9003) // beginWalk reads the clock after it refreshes the replica
			return now()
		}
		c := mustComposer(t, in.env, in.optimal())
		out, err := c.Probe(in.req)
		if err != nil {
			t.Fatal(err)
		}
		if c.walk.coarseFloor {
			t.Fatalf("instance %d: the walk kept its ceilings over a release it could see", seed)
		}
		if got := reg.Counter("core.walk.floor_overruns").Value(); got != 1 {
			t.Fatalf("instance %d: core.walk.floor_overruns = %d after one overrun walk", seed, got)
		}
		want, wantPhi, _ := bruteForce(t, in.env, in.req, in.mode)
		if out.Success() != (want != nil) {
			t.Fatalf("instance %d: walk success=%v, brute force found %v", seed, out.Success(), want)
		}
		if want != nil && (!slices.Equal(out.Best.Components, want) || math.Float64bits(out.Best.Phi) != math.Float64bits(wantPhi)) {
			t.Fatalf("instance %d: walk chose %v phi %x, brute force %v phi %x", seed, out.Best.Components, out.Best.Phi, want, wantPhi)
		}
		// The next walk of the same composer starts on ceilings again.
		in.env.Now = now
		c.env.Now = now
		if _, err := c.Probe(recomposeRequest(in.req, in.req.ID+10_000)); err != nil {
			t.Fatal(err)
		}
		if !c.walk.coarseFloor || reg.Counter("core.walk.floor_overruns").Value() != 1 {
			t.Fatalf("instance %d: a quiet walk after the overrun did not go back to the ceilings", seed)
		}
	}
}

// TestBoundedWalkKeepsSelectionOrderTies builds an exact phi tie between
// compositions in different subtrees whose bounds differ, so that the
// lowest-bound-first walk meets them in the opposite order to the
// selection-order walk: F0 has twins x0, x1 on the busier node A and y on
// node B; F1 has u on B and twins v0, v1 on A. With equal demands and no
// bandwidth demand, {x, u} and {y, v} put one component on each node and
// score the same two terms — to the bit, two-term float addition
// commutes — while stacking both on one node scores worse. Selection
// order is discovery order, so the unbounded walk keeps (x0, u): first
// found. The bounded walk expands y first (B is emptier, its bound is
// lower), finds (y, v0), and must still hand the tie to (x0, u).
// (PhiBottleneck needs no constructed case: every two compositions that
// share their worst term tie, and the oracle sweep above is full of them.)
func TestBoundedWalkKeepsSelectionOrderTies(t *testing.T) {
	mesh := boundMesh(t, 500)
	const nodeA, nodeB = 0, 1
	pcfg := component.DefaultPlacementConfig()
	pcfg.NumFunctions = 2
	pcfg.ComponentsPerNode = 2
	cat, err := component.Place(3, pcfg, rand.New(rand.NewSource(1))) // three components per function
	if err != nil {
		t.Fatal(err)
	}
	f0, f1 := cat.Candidates(0), cat.Candidates(1)
	x0, x1, y := f0[0], f0[1], f0[2]
	u, v0, v1 := f1[0], f1[1], f1[2]
	for id, node := range map[component.ComponentID]int{x0: nodeA, x1: nodeA, y: nodeB, u: nodeB, v0: nodeA, v1: nodeA} {
		if err := cat.Move(id, node); err != nil {
			t.Fatal(err)
		}
	}
	// Catalog.Move keeps discovery order; the whole test rests on it.
	if got := cat.Candidates(0); !slices.Equal(got, []component.ComponentID{x0, x1, y}) {
		t.Fatalf("discovery order of F0 changed to %v", got)
	}
	first, tied := []component.ComponentID{x0, u}, []component.ComponentID{y, v0}
	route, _ := mesh.RouteBetween(nodeB, nodeA)

	for _, mode := range []PhiMode{PhiSum, PhiWeighted} {
		env := boundEnv(t, mesh, cat, rand.New(rand.NewSource(2)), false)
		if err := env.Ledger.CommitSession(9001, map[int]qos.Resources{
			nodeA: {CPU: 50, Memory: 500},
			nodeB: {CPU: 40, Memory: 400},
		}, nil); err != nil {
			t.Fatal(err)
		}
		need := qos.Resources{CPU: 10, Memory: 100}
		req := &component.Request{
			ID:       1,
			Graph:    component.NewPathGraph([]component.FunctionID{0, 1}),
			QoSReq:   qos.Vector{Delay: 1e9, LossCost: 1e9},
			ResReq:   []qos.Resources{need, need},
			Client:   2,
			Duration: time.Minute,
			Weight:   3,
		}
		// The scenario is what it claims: the tie is exact and minimal,
		// and the lower bound prefers the later sibling.
		want, wantPhi, _ := bruteForce(t, env, req, mode)
		if !slices.Equal(want, first) {
			t.Fatalf("%v: brute force picks %v, want the first-found (x0, u) = %v", mode, want, first)
		}
		k := NewKernel(cat)
		nodes, _ := k.Stack(req, tied, []overlay.Route{route})
		for i := range nodes {
			nodes[i].Avail = freeOn(env, nodes[i].Node)
		}
		if phi, ok := k.Score(req, tied, []overlay.Route{route}, mode); !ok || phi != wantPhi {
			t.Fatalf("%v: (y, v0) scores %x, (x0, u) %x: not an exact tie", mode, phi, wantPhi)
		}
		if a, b := BoundNode(need, freeOn(env, nodeA)), BoundNode(need, freeOn(env, nodeB)); b >= a {
			t.Fatalf("%v: bound on B %v not below bound on A %v: the bounded walk would not reorder", mode, b, a)
		}

		sink := &obs.MemorySink{}
		env.Tracer = obs.New(sink)
		cfg := DefaultConfig()
		cfg.Algorithm = AlgOptimal
		cfg.Phi = mode
		out, err := mustComposer(t, env, cfg).Probe(req)
		if err != nil || !out.Success() {
			t.Fatalf("%v: probe failed: %v", mode, err)
		}
		if !slices.Equal(out.Best.Components, want) || out.Best.Phi != wantPhi {
			t.Errorf("%v: bounded walk chose %v phi %x, want the selection-order winner %v phi %x",
				mode, out.Best.Components, out.Best.Phi, want, wantPhi)
		}
		// And it did expand y, on B, before the twins on A.
		for _, e := range sink.Events() {
			if e.Type == obs.EventProbeForwarded {
				if e.Node != nodeB {
					t.Errorf("%v: the walk expanded the probe on node %d first, want %d: children are not bound-ordered", mode, e.Node, nodeB)
				}
				break
			}
		}
	}
}

// senderCutInstance builds the case the sender cut exists for. F0 has a on
// node A and b on B; F1 has x on the busy node X and u on the idle node
// U. The virtual link A→X is too slow for the delay requirement, so a's
// selection never offers x, and x's node is never read. A is a little
// emptier than B, so a is expanded first and (a, u) becomes the
// incumbent; b survives its re-check because the incumbent's link term
// A→U is more than the difference. From b, x is offered first — and its
// ceiling term alone already costs more than the incumbent, so b never
// sends it.
func senderCutInstance(t *testing.T) (env Env, req *component.Request, nodeX int) {
	t.Helper()
	mesh := boundMesh(t, 500)
	pcfg := component.DefaultPlacementConfig()
	pcfg.NumFunctions = mesh.NumNodes() / 2 // two candidates per function
	cat, err := component.Place(mesh.NumNodes(), pcfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	f0, f1 := cat.Candidates(0), cat.Candidates(1)
	if len(f0) != 2 || len(f1) != 2 {
		t.Fatalf("functions have %d and %d candidates, want 2 and 2", len(f0), len(f1))
	}
	a, b, x, u := cat.Component(f0[0]), cat.Component(f0[1]), cat.Component(f1[0]), cat.Component(f1[1])
	delay := func(p, q component.Component, from, to int) float64 {
		r, ok := mesh.RouteBetween(from, to)
		if !ok {
			return math.Inf(1)
		}
		return p.QoS.Delay + r.QoS.Delay + q.QoS.Delay
	}
	nodeA, nodeB, nodeU := -1, -1, -1
	var slow, fast float64
	n := mesh.NumNodes()
search:
	for qa := 0; qa < n; qa++ {
		for qb := 0; qb < n; qb++ {
			for qu := 0; qu < n; qu++ {
				for qx := 0; qx < n; qx++ {
					if qa == qb || qa == qu || qa == qx || qb == qu || qb == qx || qu == qx {
						continue
					}
					s := delay(a, x, qa, qx)
					f := max(delay(a, u, qa, qu), delay(b, u, qb, qu), delay(b, x, qb, qx))
					if s > f+1 {
						nodeA, nodeB, nodeU, nodeX, slow, fast = qa, qb, qu, qx, s, f
						break search
					}
				}
			}
		}
	}
	if nodeA < 0 {
		t.Fatal("no four nodes where only the link A→X is slow")
	}
	for id, node := range map[component.ComponentID]int{a.ID: nodeA, b.ID: nodeB, x.ID: nodeX, u.ID: nodeU} {
		if err := cat.Move(id, node); err != nil {
			t.Fatal(err)
		}
	}

	env = boundEnv(t, mesh, cat, rand.New(rand.NewSource(4)), false)
	capacity := env.Ledger.NodeCapacity(nodeA)
	if err := env.Ledger.CommitSession(9001, map[int]qos.Resources{
		nodeA: capacity.Scale(0.20),
		nodeB: capacity.Scale(0.25),
		nodeX: capacity.Scale(0.93),
	}, nil); err != nil {
		t.Fatal(err)
	}
	env.Global.ForceRefresh()
	au, _ := mesh.RouteBetween(nodeA, nodeU)
	need := capacity.Scale(0.05)
	req = &component.Request{
		ID:           1,
		Graph:        component.NewPathGraph([]component.FunctionID{0, 1}),
		QoSReq:       qos.Vector{Delay: (slow + fast) / 2, LossCost: 1e9},
		ResReq:       []qos.Resources{need, need},
		BandwidthReq: 0.1 * staticBottleneck(mesh, au),
		Client:       nodeU,
		Duration:     time.Minute,
	}
	return env, req, nodeX
}

// staticBottleneck is the smallest static capacity among a route's links
// (kbps), +Inf for a co-located route.
func staticBottleneck(m *overlay.Mesh, r overlay.Route) float64 {
	bw := math.Inf(1)
	for _, id := range r.Links {
		bw = math.Min(bw, m.Link(id).Capacity)
	}
	return bw
}

// TestSenderCutAccounting: a candidate cut by its sender is a probe that
// was never sent. It opens no span, is pruned once before spawn with the
// incumbent-bound reason, is not charged to ProbesSent or the probe
// counter, and spends no budget: a walk given exactly the budget it
// spends sends the same probes and decides the same.
func TestSenderCutAccounting(t *testing.T) {
	env, req, nodeX := senderCutInstance(t)
	sink := &obs.MemorySink{}
	env.Tracer = obs.New(sink)
	cfg := DefaultConfig()
	cfg.ProbingRatio = 1
	c := mustComposer(t, env, cfg)
	out, err := c.Probe(req)
	if err != nil || !out.Success() {
		t.Fatalf("probe: %v, success=%v", err, out != nil && out.Success())
	}

	spawned, senderCuts := 0, 0
	for _, e := range sink.Events() {
		switch {
		case e.Type == obs.EventProbeSpawned:
			spawned++
			if e.Node == nodeX {
				t.Errorf("a probe was sent to the busy node %d", nodeX)
			}
		case e.Type == obs.EventCandidatePruned && e.Reason == obs.ReasonBound && e.Probe == 0:
			senderCuts++
			if e.Node != nodeX || e.Pos != 1 || e.Parent == 0 {
				t.Errorf("cut before send at position %d, node %d, parent %d; want position 1, node %d, a parent span", e.Pos, e.Node, e.Parent, nodeX)
			}
		}
	}
	if senderCuts != 1 {
		t.Fatalf("%d candidates cut before send, want 1", senderCuts)
	}
	if out.ProbesSent != spawned || env.Counters.Snapshot().Probes != int64(spawned) {
		t.Fatalf("ProbesSent %d, probe counter %d, %d probes spawned", out.ProbesSent, env.Counters.Snapshot().Probes, spawned)
	}
	c.Abort(req.ID)

	exact := &obs.MemorySink{}
	env.Tracer = obs.New(exact)
	cfg.MaxProbesPerRequest = out.ProbesSent
	again, err := mustComposer(t, env, cfg).Probe(req)
	if err != nil || !again.Success() {
		t.Fatalf("probe with budget %d: %v, success=%v", cfg.MaxProbesPerRequest, err, again != nil && again.Success())
	}
	for _, e := range exact.Events() {
		if e.Type == obs.EventCandidatePruned && e.Reason == obs.ReasonBudget {
			t.Fatalf("a walk given the %d probes the walk sends ran out of budget at position %d", out.ProbesSent, e.Pos)
		}
	}
	if again.ProbesSent != out.ProbesSent || !slices.Equal(again.Best.Components, out.Best.Components) || again.Best.Phi != out.Best.Phi {
		t.Fatalf("budget %d: %d probes, chose %v phi %x; default budget: %d probes, chose %v phi %x",
			cfg.MaxProbesPerRequest, again.ProbesSent, again.Best.Components, again.Best.Phi, out.ProbesSent, out.Best.Components, out.Best.Phi)
	}
}

// TestSkippedHopPrunesEveryCandidate: a hop whose every discovered
// candidate the sender would cut selects nothing and sends nothing, and
// still accounts for each candidate. Across a traced ACP walk and an
// Optimal one over a loaded path, every candidate discovery returned at
// every hop ends in exactly one pre-spawn prune or one spawned probe, and
// some hops were skipped whole: all their candidates pruned before send
// for the incumbent bound, with no ranking cut among them.
func TestSkippedHopPrunesEveryCandidate(t *testing.T) {
	for _, alg := range []Algorithm{AlgACP, AlgOptimal} {
		mesh := boundMesh(t, 501)
		rng := rand.New(rand.NewSource(77))
		pcfg := component.DefaultPlacementConfig()
		pcfg.NumFunctions = 4
		pcfg.ComponentsPerNode = 2
		cat, err := component.Place(mesh.NumNodes(), pcfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		env := boundEnv(t, mesh, cat, rng, true)
		load := make(map[int]qos.Resources)
		for n := 0; n < mesh.NumNodes(); n++ {
			load[n] = env.Ledger.NodeCapacity(n).Scale(0.5 * rng.Float64())
		}
		if err := env.Ledger.CommitSession(9001, load, nil); err != nil {
			t.Fatal(err)
		}
		env.Global.ForceRefresh()
		sink := &obs.MemorySink{}
		env.Tracer = obs.New(sink)
		need := qos.Resources{CPU: 5, Memory: 50}
		req := &component.Request{
			ID:           1,
			Graph:        component.NewPathGraph([]component.FunctionID{0, 1, 2, 3}),
			QoSReq:       qos.Vector{Delay: 1e9, LossCost: 1e9},
			ResReq:       []qos.Resources{need, need, need, need},
			BandwidthReq: 10,
			Client:       0,
			Duration:     time.Minute,
		}
		cfg := DefaultConfig()
		cfg.Algorithm = alg
		cfg.ProbingRatio = 0.5
		out, err := mustComposer(t, env, cfg).Probe(req)
		if err != nil || !out.Success() {
			t.Fatalf("%v: probe: %v, success=%v", alg, err, out != nil && out.Success())
		}

		// A hop is the extension of one probe span (0 at the root) at the
		// position after the span's own; the path's positions are its order.
		discovered := func(pos int) int { return len(cat.Candidates(req.Graph.Functions[pos])) }
		want, got := discovered(0), 0
		type hop struct {
			parent int64
			pos    int
		}
		bound, ended := make(map[hop]int), make(map[hop]int)
		for _, e := range sink.Events() {
			switch {
			case e.Type == obs.EventProbeForwarded:
				want += discovered(e.Pos + 1)
			case e.Type == obs.EventProbeSpawned:
				got++
			case e.Type == obs.EventCandidatePruned && e.Probe == 0:
				got++
				h := hop{e.Parent, e.Pos}
				ended[h]++
				if e.Reason == obs.ReasonBound {
					bound[h]++
				}
			}
		}
		if got != want {
			t.Errorf("%v: discovery returned %d candidates over the walk's hops, %d ended in a prune before send or a spawned probe", alg, want, got)
		}
		skipped := 0
		for h, n := range bound {
			if n == discovered(h.pos) && ended[h] == n {
				skipped++
			}
		}
		if skipped == 0 {
			t.Errorf("%v: no hop had every candidate cut before send", alg)
		}
		t.Logf("%v: %d candidates over the hops, %d hops skipped whole", alg, want, skipped)
	}
}
