package core

import (
	"math"
	"math/rand"
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

// holdLeakScenario is the substrate of the partial-hold tests: a
// four-position path request shaped so that at position 2 every
// candidate on node n0 acquires its node hold but then fails a link hold
// when its parent sits on nA (the route back to n0 re-crosses links
// already held for position 1, and a foreign session has eaten the
// slack), while one candidate on a link-disjoint node nD survives. F0
// and F3 live on n0, F1 on nA — and, with f1OnDetour, one F1 component
// on nD too, a second parent from which n0 is reached over free links.
type holdLeakScenario struct {
	composer   *Composer
	req        *component.Request
	ledger     *state.Ledger
	catalog    *component.Catalog
	sink       *obs.MemorySink
	n0, nA, nD int
}

func newHoldLeakScenario(t *testing.T, f1OnDetour bool) holdLeakScenario {
	t.Helper()
	rng := rand.New(rand.NewSource(11))

	tcfg := topology.DefaultConfig()
	tcfg.Nodes = 200
	g, err := topology.Generate(tcfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	ocfg := overlay.DefaultConfig()
	ocfg.Nodes = 20
	mesh, err := overlay.Build(g, ocfg, rng)
	if err != nil {
		t.Fatal(err)
	}

	// nA: any node whose route from n0 crosses at least one link. Those
	// links are the ones position 1 will hold bandwidth on.
	const n0 = 0
	nA := -1
	var poisonLinks []int
	for v := 1; v < mesh.NumNodes(); v++ {
		if r, ok := mesh.RouteBetween(n0, v); ok && !r.CoLocated && len(r.Links) > 0 {
			nA, poisonLinks = v, r.Links
			break
		}
	}
	if nA < 0 {
		t.Fatal("mesh has no routed neighbor for node 0")
	}
	poisoned := make(map[int]bool, len(poisonLinks))
	minCap := math.Inf(1)
	for _, l := range poisonLinks {
		poisoned[l] = true
		if c := mesh.Link(l).Capacity; c < minCap {
			minCap = c
		}
	}
	bw := minCap / 2

	// nD: reachable from nA and n0 over links disjoint from the poisoned
	// route, with capacity for one more bandwidth share.
	nD := -1
	for v := 1; v < mesh.NumNodes() && nD < 0; v++ {
		if v == nA {
			continue
		}
		r1, ok1 := mesh.RouteBetween(nA, v)
		r2, ok2 := mesh.RouteBetween(v, n0)
		if !ok1 || !ok2 {
			continue
		}
		ok := true
		for _, l := range append(append([]int(nil), r1.Links...), r2.Links...) {
			if poisoned[l] || mesh.Link(l).Capacity < bw {
				ok = false
				break
			}
		}
		if ok {
			nD = v
		}
	}
	if nD < 0 {
		t.Fatal("mesh has no link-disjoint detour node")
	}

	// Four functions; pin every candidate: F0 and F3 on n0, F1 on nA,
	// F2 split between n0 (doomed) and nD (the detour that must win).
	pcfg := component.DefaultPlacementConfig()
	pcfg.NumFunctions = 4
	pcfg.ComponentsPerNode = 1
	cat, err := component.Place(mesh.NumNodes(), pcfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Candidates(2)) < 2 {
		t.Fatal("seed produced fewer than two position-2 candidates")
	}
	move := func(f component.FunctionID, node int) {
		for _, id := range cat.Candidates(f) {
			if err := cat.Move(id, node); err != nil {
				t.Fatal(err)
			}
		}
	}
	move(0, n0)
	move(1, nA)
	if f1OnDetour {
		if err := cat.Move(cat.Candidates(1)[0], nD); err != nil {
			t.Fatal(err)
		}
	}
	move(2, n0)
	if err := cat.Move(cat.Candidates(2)[0], nD); err != nil {
		t.Fatal(err)
	}
	move(3, n0)

	clk := &testClock{}
	counters := &metrics.Counters{}
	ledger := state.NewLedger(mesh, qos.Resources{CPU: 100, Memory: 1000}, clk.Now)

	// A foreign session leaves exactly 1.5 shares of raw capacity on the
	// poisoned links: position 1's hold fits (1.5 -> 0.5 shares left),
	// but a position-2 re-crossing cannot hold another full share. The
	// credited precheck still passes (it credits the position-1 hold),
	// so the failure surfaces inside the hold sequence — after the node
	// hold succeeded. That is the leak site.
	foreign := make(map[int]float64, len(poisonLinks))
	for _, l := range poisonLinks {
		foreign[l] = mesh.Link(l).Capacity - 1.5*bw
	}
	if err := ledger.CommitSession(999, nil, foreign); err != nil {
		t.Fatal(err)
	}

	global, err := state.NewGlobal(ledger, mesh, state.DefaultGlobalConfig(), counters)
	if err != nil {
		t.Fatal(err)
	}
	sink := &obs.MemorySink{}
	env := Env{
		Mesh:     mesh,
		Catalog:  cat,
		Registry: discovery.NewRegistry(cat, mesh.NumNodes(), counters),
		Ledger:   ledger,
		Global:   global,
		Counters: counters,
		Now:      clk.Now,
		Rand:     rng,
		Tracer:   obs.New(sink),
	}
	cfg := DefaultConfig()
	cfg.ProbingRatio = 1.0
	c := mustComposer(t, env, cfg)

	// Positions 0+3 together need 10+50 CPU on n0: fine with 100 — but
	// not if a leaked position-2 hold (50 CPU) still squats there.
	req := &component.Request{
		ID:           1,
		Graph:        component.NewPathGraph([]component.FunctionID{0, 1, 2, 3}),
		QoSReq:       qos.Vector{Delay: 1e12, LossCost: 1e12},
		ResReq:       []qos.Resources{{CPU: 10, Memory: 100}, {CPU: 10, Memory: 100}, {CPU: 50, Memory: 500}, {CPU: 50, Memory: 500}},
		BandwidthReq: bw,
		Client:       n0,
		Duration:     10 * time.Minute,
	}
	return holdLeakScenario{composer: c, req: req, ledger: ledger, catalog: cat, sink: sink, n0: n0, nA: nA, nD: nD}
}

// TestLeakedHoldNoLongerStarvesLaterPositions stages the extendProbe
// partial-hold failure end to end. The position-3 candidates all live on
// n0 and need more capacity than n0 has once a leaked position-2 hold
// squats on it: before the fix the loser's node hold was never rolled
// back, the position-3 raw availability check failed, and the whole
// request was rejected even though a qualified composition exists.
func TestLeakedHoldNoLongerStarvesLaterPositions(t *testing.T) {
	sc := newHoldLeakScenario(t, false)
	cat, ledger, sink, n0, nD := sc.catalog, sc.ledger, sc.sink, sc.n0, sc.nD
	out, err := sc.composer.Probe(sc.req)
	if err != nil {
		t.Fatal(err)
	}

	// The failure path must actually have run: at least one candidate
	// pruned at the link-hold step (after its node hold was placed).
	holdLinkPrunes := 0
	for _, e := range sink.Events() {
		if e.Type == obs.EventCandidatePruned && e.Reason == obs.ReasonHoldLink {
			holdLinkPrunes++
		}
	}
	if holdLinkPrunes == 0 {
		t.Fatal("scenario did not exercise the partial-hold failure path")
	}

	if !out.Success() {
		t.Fatal("request starved: leaked position-2 hold blocked the position-3 candidate on the same node")
	}
	if node := cat.Component(out.Best.Components[2]).Node; node != nD {
		t.Errorf("position 2 chose node %d, want detour node %d", node, nD)
	}
	if node := cat.Component(out.Best.Components[3]).Node; node != n0 {
		t.Errorf("position 3 chose node %d, want %d", node, n0)
	}
	if err := ledger.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRolledBackHopLeavesNoMark pins the hold-once rule at its one
// delicate point. A hop whose link hold is refused rolls its node hold
// back, so it must not mark (position, node) as held: a later sibling
// that reaches the same node over a feasible route has to place the node
// hold on the ledger for real. Only a hop that succeeded as a whole
// marks, and then its repeats stay off the ledger.
func TestRolledBackHopLeavesNoMark(t *testing.T) {
	sc := newHoldLeakScenario(t, true)
	c, req, n0 := sc.composer, sc.req, sc.n0
	ws := &c.scratch
	beginPlannedWalk(t, c, req)
	out := &Outcome{Request: req}
	onNode := func(children []hopChild, node int) hopChild {
		t.Helper()
		for _, child := range children {
			if sc.catalog.Component(child.choice).Node == node {
				return child
			}
		}
		t.Fatalf("no surviving child on node %d", node)
		return hopChild{}
	}

	source := onNode(c.extendProbe(out, hopChild{}, 0, 0, true), n0)
	ws.cur[0] = source.choice
	parents := append([]hopChild(nil), c.extendProbe(out, source, 1, 1, false)...)
	viaA, viaD := onNode(parents, sc.nA), onNode(parents, sc.nD)
	afterSource := freeOn(sc.composer.env, n0)

	// From the parent on nA every candidate on n0 loses its link hold and
	// gives its node hold back: nothing of position 2 stays on n0, on the
	// ledger or in the marks.
	ws.cur[1] = viaA.choice
	for _, child := range c.extendProbe(out, viaA, 2, 2, false) {
		if sc.catalog.Component(child.choice).Node == n0 {
			t.Fatal("a hop onto n0 from nA survived: the scenario does not refuse the link hold")
		}
	}
	if got := freeOn(sc.composer.env, n0); got != afterSource {
		t.Fatalf("n0 has %v available after the refused hops, want %v: a node hold was not rolled back", got, afterSource)
	}
	if ws.heldNode[2*ws.numNodes+n0] == ws.epoch {
		t.Fatal("a rolled-back hop marked (position 2, n0) as held")
	}

	// From the parent on nD the same (position, node) is reached over
	// free links: the hold goes onto the ledger and the hop is marked.
	ws.cur[1] = viaD.choice
	onNode(c.extendProbe(out, viaD, 2, 2, false), n0)
	held := afterSource.Sub(req.ResReq[2])
	if got := freeOn(sc.composer.env, n0); got != held {
		t.Fatalf("n0 has %v available after the feasible hop, want %v: the node hold is not on the ledger", got, held)
	}
	if ws.heldNode[2*ws.numNodes+n0] != ws.epoch {
		t.Fatal("the successful hop did not mark (position 2, n0)")
	}
	// Its repeat survives without another hold.
	onNode(c.extendProbe(out, viaD, 2, 2, false), n0)
	if got := freeOn(sc.composer.env, n0); got != held {
		t.Fatalf("n0 has %v available after the repeated hop, want %v", got, held)
	}
	c.env.Ledger.ReleaseOwner(state.Owner(req.ID))
	if err := sc.ledger.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBoundCutsLeaveNoHolds walks a loaded four-position path with the
// bound cutting at every depth — a source-hop probe re-checked before it
// fans out, probes cut by their sender mid-graph and at the last hop,
// probes stopped at their candidate — and accounts for every hold and
// span: a probe cut before send opens no span and places no hold, a probe
// cut at its candidate never placed one, every hold the walk did place is
// released with the decision, and after the winner is abandoned the
// ledger is as it was.
func TestBoundCutsLeaveNoHolds(t *testing.T) {
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
	// One source candidate sits on a node with just enough left to pass
	// its own hop: once any composition has come back it cannot win.
	busy := cat.Component(cat.Candidates(0)[0]).Node
	load[busy] = env.Ledger.NodeCapacity(busy).Scale(0.93)
	if err := env.Ledger.CommitSession(9001, load, nil); err != nil {
		t.Fatal(err)
	}
	before := snapshotLedger(env)

	// A probe cut before it is sent is checked as it is cut: its parent's
	// span is open, no span is opened for it, and the ledger holds on its
	// node exactly what spawned probes of the walk placed there — nothing
	// for the cut candidate.
	need := qos.Resources{CPU: 5, Memory: 50}
	var events []obs.Event
	open := make(map[int64]bool)
	heldAt := make(map[[2]int]bool) // (position, node) a spawned probe holds
	var cutBeforeSend [4]int
	env.Tracer = obs.New(sinkFunc(func(e obs.Event) {
		events = append(events, e)
		switch {
		case e.OpensSpan():
			open[e.Probe] = true
		case e.ClosesSpan():
			delete(open, e.Probe)
		}
		if e.Type == obs.EventHoldAcquired && e.Pos >= 0 {
			heldAt[[2]int{e.Pos, e.Node}] = true
		}
		if e.Type != obs.EventCandidatePruned || e.Reason != obs.ReasonBound || e.Probe != 0 {
			return
		}
		cutBeforeSend[e.Pos]++
		if !open[e.Parent] {
			t.Errorf("a probe cut before send at position %d names parent %d, whose span is not open", e.Pos, e.Parent)
		}
		want := before.nodes[e.Node]
		for pos := range cutBeforeSend {
			if heldAt[[2]int{pos, e.Node}] {
				want = want.Sub(need)
			}
		}
		if got := freeOn(env, e.Node); math.Abs(got.CPU-want.CPU) > 1e-9 || math.Abs(got.Memory-want.Memory) > 1e-9 {
			t.Errorf("node %d has %v available when a probe to it is cut before send, want %v", e.Node, got, want)
		}
	}))
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
	cfg.Algorithm = AlgOptimal
	c := mustComposer(t, env, cfg)
	out, err := c.Probe(req)
	if err != nil || !out.Success() {
		t.Fatalf("probe: %v, success=%v", err, out != nil && out.Success())
	}

	held := make(map[int64]bool) // probe span -> placed (or shared) a hold
	released := false
	var cutAtCandidate, cutBeforeFanOut [4]int
	for _, e := range events {
		switch {
		case e.Type == obs.EventHoldAcquired && e.Pos >= 0:
			if released {
				t.Fatalf("probe %d acquired a hold at position %d after the walk's holds were released", e.Probe, e.Pos)
			}
			held[e.Probe] = true
		case e.Type == obs.EventHoldReleased && e.Node == -1:
			released = true
		case e.Type == obs.EventCandidatePruned && e.Reason == obs.ReasonHoldLink:
			t.Fatal("a link hold was refused: its rolled-back node hold leaves no event, so the per-node accounting above cannot be trusted")
		case e.Type == obs.EventCandidatePruned && e.Reason == obs.ReasonBound && e.Probe != 0:
			if held[e.Probe] {
				cutBeforeFanOut[e.Pos]++
			} else {
				cutAtCandidate[e.Pos]++
			}
		}
	}
	if !released {
		t.Fatal("the walk never released its holds")
	}
	// No incumbent exists while the source hop's candidates are visited, so
	// there the bound can only fire on the re-check.
	if cutBeforeSend[0]+cutAtCandidate[0] != 0 || cutBeforeFanOut[0] == 0 {
		t.Errorf("source hop: %d cut before send, %d at the candidate, %d before fan-out; want 0, 0 and some",
			cutBeforeSend[0], cutAtCandidate[0], cutBeforeFanOut[0])
	}
	if cutBeforeSend[1]+cutBeforeSend[2] == 0 || cutBeforeSend[3] == 0 {
		t.Errorf("cuts before send per position %v: want some mid-graph and some at the last hop", cutBeforeSend)
	}
	if cutAtCandidate[1]+cutAtCandidate[2]+cutAtCandidate[3] == 0 {
		t.Errorf("cuts at the candidate per position %v: want some after the sender cut let a probe go", cutAtCandidate)
	}
	if leaked := obs.LeakedSpans(events); len(leaked) != 0 {
		t.Errorf("%d probe spans never closed: %v", len(leaked), leaked)
	}

	t.Logf("bound cuts per position: before send %v, at the candidate %v, before fan-out %v", cutBeforeSend, cutAtCandidate, cutBeforeFanOut)

	c.Abort(req.ID)
	after := snapshotLedger(env)
	for n := range before.nodes {
		if d := after.nodes[n].Sub(before.nodes[n]); math.Abs(d.CPU) > 1e-9 || math.Abs(d.Memory) > 1e-9 {
			t.Errorf("node %d has %v available after the walk, %v before", n, after.nodes[n], before.nodes[n])
		}
	}
	for k := range before.links {
		if math.Abs(after.links[k]-before.links[k]) > 1e-9 {
			t.Errorf("link %d has %v available after the walk, %v before", k, after.links[k], before.links[k])
		}
	}
	if err := env.Ledger.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
