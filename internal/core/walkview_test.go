package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/discovery"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/state"
)

// TestProbeReadsTheClockOnce wires one counting clock into both the
// ledger and the composer: a whole Probe — every conformance check,
// every transient hold, the deputy's evaluation and the winner's
// aggregate hold — runs at the one instant beginWalk read.
func TestProbeReadsTheClockOnce(t *testing.T) {
	for _, alg := range []Algorithm{AlgACP, AlgOptimal, AlgSP, AlgRP, AlgRandom, AlgStatic} {
		env, clk := testEnv(t, 21)
		cfg := DefaultConfig()
		cfg.Algorithm = alg
		c := mustComposer(t, env, cfg)
		admitted := 0
		for i := int64(1); i <= 6; i++ {
			clk.now += time.Second
			req := easyRequest(i)
			before := clk.reads
			out, err := c.Probe(req)
			if err != nil {
				t.Fatal(err)
			}
			if got := clk.reads - before; got != 1 {
				t.Fatalf("%s request %d: Probe read the clock %d times, want 1", alg, i, got)
			}
			if out.Success() {
				admitted++
				if err := c.Commit(out); err != nil {
					t.Fatal(err)
				}
			}
		}
		if admitted == 0 {
			t.Fatalf("%s admitted nothing; the walk under test never held or evaluated", alg)
		}
	}
}

// ledgerSnapshot is what every node and overlay link had available at
// one moment, from nobody's perspective in particular.
type ledgerSnapshot struct {
	nodes []qos.Resources
	links []float64
}

func snapshotLedger(env Env) ledgerSnapshot {
	l := env.Ledger
	s := ledgerSnapshot{nodes: make([]qos.Resources, l.NumNodes()), links: make([]float64, l.NumLinks())}
	for n := range s.nodes {
		s.nodes[n] = freeOn(env, n)
	}
	for k := range s.links {
		s.links[k] = l.LinkAvailable(k)
	}
	return s
}

// referenceDemands stacks a composition's demand per node and per overlay
// link as a map fold, written from footnotes 4 and 5 independently of
// Kernel.Stack.
func referenceDemands(c *Composer, req *component.Request, comp *Composition) (map[int]qos.Resources, map[int]float64) {
	nodes := make(map[int]qos.Resources)
	for pos, id := range comp.Components {
		n := c.env.Catalog.Component(id).Node
		nodes[n] = nodes[n].Add(req.ResReq[pos])
	}
	links := make(map[int]float64)
	for _, r := range comp.Routes {
		if r.CoLocated {
			continue
		}
		for _, k := range r.Links {
			links[k] += req.BandwidthReq
		}
	}
	return nodes, links
}

// credit adds a committed composition's shares back, as a migration
// window credits the session being re-composed.
func (s ledgerSnapshot) credit(c *Composer, req *component.Request, comp *Composition) {
	nodes, links := referenceDemands(c, req, comp)
	for n, amount := range nodes {
		s.nodes[n] = s.nodes[n].Add(amount)
	}
	for k, bw := range links {
		s.links[k] += bw
	}
}

// referencePhi is Eq. 1 written from the paper against a snapshot: each
// component's term uses its node's residual after all of the request's
// placements there, each virtual link's term its bottleneck residual
// after all of the request's reservations (0 when co-located,
// footnote 8). The request's own stacked demand comes from
// referenceDemands, not the kernel's stacked slices.
func referencePhi(c *Composer, snap ledgerSnapshot, req *component.Request, comp *Composition) float64 {
	nodes, links := referenceDemands(c, req, comp)
	phi := 0.0
	for pos, id := range comp.Components {
		n := c.env.Catalog.Component(id).Node
		phi += qos.CongestionTerm(req.ResReq[pos], snap.nodes[n].Sub(nodes[n]))
	}
	for _, r := range comp.Routes {
		residual := math.Inf(1)
		if !r.CoLocated {
			for _, k := range r.Links {
				residual = math.Min(residual, snap.links[k]-links[k])
			}
		}
		phi += qos.BandwidthCongestionTerm(req.BandwidthReq, residual)
	}
	return phi
}

// randomBranchRequest draws a two-branch DAG request (Figure 1(b)) with
// randomRequest's demand ranges.
func randomBranchRequest(t *testing.T, rng *rand.Rand, id int64, numFunctions, numNodes int) *component.Request {
	t.Helper()
	perm := rng.Perm(numFunctions)
	fn := func(i int) component.FunctionID { return component.FunctionID(perm[i]) }
	g, err := component.NewBranchGraph(fn(0), []component.FunctionID{fn(1), fn(2)}, []component.FunctionID{fn(3)}, fn(4))
	if err != nil {
		t.Fatal(err)
	}
	req := randomRequest(rng, id, numFunctions, numNodes)
	req.Graph = g
	req.QoSReq.Delay *= 2 // five hops instead of two to four
	req.ResReq = make([]qos.Resources, g.NumPositions())
	for i := range req.ResReq {
		req.ResReq[i] = qos.Resources{CPU: 3 + rng.Float64()*15, Memory: 20 + rng.Float64()*120}
	}
	return req
}

// TestPropertyWinnerPhiIsEq1OverThePreWalkLedger: the walk's view of a
// node or link is the first read, and every first read precedes the
// request's own hold there, so the phi a winner reports is — to the bit —
// Eq. 1 over the ledger as it stood before the walk, with the request's
// own demand stacked. Random 30-node meshes carrying committed sessions
// and a bystander's transient holds; paths, two-branch DAGs, and
// re-compositions credited with the session being migrated.
func TestPropertyWinnerPhiIsEq1OverThePreWalkLedger(t *testing.T) {
	checked := map[string]int{}
	for seed := int64(1); seed <= 12; seed++ {
		env, clk := testEnv(t, 100+seed)
		cfg := DefaultConfig()
		cfg.ProbingRatio = 0.5
		if seed%3 == 0 {
			cfg.Algorithm = AlgOptimal
		}
		c := mustComposer(t, env, cfg)
		rng := rand.New(rand.NewSource(seed))
		numF, numN := env.Catalog.NumFunctions(), env.Mesh.NumNodes()

		// A bystander's live holds: part of everyone's "before".
		for i := 0; i < 6; i++ {
			env.Ledger.HoldNode(9000, i, rng.Intn(numN), qos.Resources{CPU: 1 + rng.Float64()*20, Memory: 10 + rng.Float64()*100}, time.Hour)
			env.Ledger.HoldLink(9000, i, rng.Intn(env.Ledger.NumLinks()), 10+rng.Float64()*200, time.Hour)
		}

		type live struct {
			req  *component.Request
			comp *Composition
		}
		var sessions []live
		for i := int64(1); i <= 30; i++ {
			clk.now += time.Second
			kind := "path"
			var req *component.Request
			switch {
			case i%3 == 0:
				kind = "dag"
				req = randomBranchRequest(t, rng, i, numF, numN)
			case i%5 == 0 && len(sessions) > 0:
				kind = "recompose"
			default:
				req = randomRequest(rng, i, numF, numN)
			}

			snap := snapshotLedger(env)
			var (
				out *Outcome
				err error
			)
			if kind == "recompose" {
				prev := sessions[rng.Intn(len(sessions))]
				req = recomposeRequest(prev.req, i)
				snap.credit(c, prev.req, prev.comp)
				out, err = c.ProbeRecompose(req, prev.req.ID)
			} else {
				out, err = c.Probe(req)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !out.Success() {
				continue
			}
			if want := referencePhi(c, snap, req, out.Best); out.Best.Phi != want {
				t.Fatalf("seed %d request %d (%s): winner phi %x, Eq. 1 over the pre-walk ledger %x",
					seed, i, kind, out.Best.Phi, want)
			}
			checked[kind]++
			if kind == "recompose" {
				c.AbortRecompose(req.ID)
				continue
			}
			if err := c.Commit(out); err != nil {
				t.Fatal(err)
			}
			sessions = append(sessions, live{req, out.Best})
		}
		if err := env.Ledger.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	for _, kind := range []string{"path", "dag", "recompose"} {
		if checked[kind] < 10 {
			t.Errorf("only %d %s winners checked; the property is under-exercised", checked[kind], kind)
		}
	}
}

// sinkFunc adapts a function to obs.Sink.
type sinkFunc func(obs.Event)

func (f sinkFunc) Emit(e obs.Event) { f(e) }

// TestStaleViewCostsAProbeNotAnOverAdmission drives the one interleaving
// the view has to survive, deterministically. Composers A and B share
// one locked ledger. A (exhaustive, so its visiting order is the
// catalog's) reads the route P→Q and node Q into its view and places its
// node hold on Q; at that hold's trace event — before A's link holds — B
// composes and commits a session over the same route that takes the
// bottleneck link's bandwidth. A's view still says the route has room;
// the ledger refuses A's link hold, A gives back exactly the holds that
// candidate created, and nothing is over-admitted.
func TestStaleViewCostsAProbeNotAnOverAdmission(t *testing.T) {
	env, _ := testEnv(t, 7)
	env.Ledger.EnableLocking()
	env.Global.EnableLocking()

	// Functions fx, fy whose first candidates sit on distinct nodes P, Q
	// with a routed path between them: Static (B) picks exactly those,
	// and Optimal (A) visits them first.
	var (
		fx, fy component.FunctionID
		p, q   int
		found  bool
	)
	numF := env.Catalog.NumFunctions()
	for a := 0; a < numF && !found; a++ {
		for b := 0; b < numF && !found; b++ {
			ca, cb := env.Catalog.Candidates(component.FunctionID(a)), env.Catalog.Candidates(component.FunctionID(b))
			if a == b || len(ca) == 0 || len(cb) == 0 {
				continue
			}
			p, q = env.Catalog.Component(ca[0]).Node, env.Catalog.Component(cb[0]).Node
			if r, ok := env.Mesh.RouteBetween(p, q); ok && !r.CoLocated && len(r.Links) > 0 {
				fx, fy, found = component.FunctionID(a), component.FunctionID(b), true
			}
		}
	}
	if !found {
		t.Fatal("no function pair with routed first candidates in the test catalog")
	}
	route, _ := env.Mesh.RouteBetween(p, q)
	bottleneck := math.Inf(1)
	for _, k := range route.Links {
		bottleneck = math.Min(bottleneck, env.Ledger.LinkCapacity(k))
	}

	request := func(id int64, bw float64) *component.Request {
		return &component.Request{
			ID:           id,
			Graph:        component.NewPathGraph([]component.FunctionID{fx, fy}),
			QoSReq:       qos.Vector{Delay: 1e6, LossCost: qos.LossCost(0.9)},
			ResReq:       []qos.Resources{{CPU: 10, Memory: 100}, {CPU: 10, Memory: 100}},
			BandwidthReq: bw,
			Client:       p,
			Duration:     time.Minute,
		}
	}
	reqA, reqB := request(1, bottleneck*0.4), request(2, bottleneck*0.8)

	envB := env
	envB.Registry = discovery.NewRegistry(env.Catalog, env.Mesh.NumNodes(), env.Counters)
	envB.Rand = rand.New(rand.NewSource(2))
	b := mustComposer(t, envB, Config{Algorithm: AlgStatic, HoldTTL: time.Minute, TransientAllocation: true})

	var (
		bCommitted   bool
		afterRefusal struct {
			seen     bool
			p, q     qos.Resources
			linkHeld []float64
		}
	)
	envA := env
	envA.Tracer = obs.New(sinkFunc(func(e obs.Event) {
		if e.Req != reqA.ID {
			return
		}
		switch {
		case e.Type == obs.EventHoldAcquired && e.Pos == 1 && e.Node == q && !bCommitted:
			// A has read Q and P→Q and holds Q; its link holds come next.
			bCommitted = true
			out, err := b.Probe(reqB)
			if err != nil || !out.Success() {
				t.Errorf("B's probe inside A's walk: %v, success %v", err, out != nil && out.Success())
				return
			}
			if err := b.Commit(out); err != nil {
				t.Errorf("B's commit inside A's walk: %v", err)
			}
		case e.Type == obs.EventCandidatePruned && e.Reason == obs.ReasonHoldLink && e.Node == q && !afterRefusal.seen:
			afterRefusal.seen = true
			afterRefusal.p = freeOn(env, p)
			afterRefusal.q = freeOn(env, q)
			for _, k := range route.Links {
				afterRefusal.linkHeld = append(afterRefusal.linkHeld,
					env.Ledger.LinkAvailableForAt(env.Now(), state.Owner(reqA.ID), k)-env.Ledger.LinkAvailable(k))
			}
		}
	}))
	a := mustComposer(t, envA, Config{Algorithm: AlgOptimal, HoldTTL: time.Minute, TransientAllocation: true})

	out, err := a.Probe(reqA)
	if err != nil {
		t.Fatal(err)
	}
	if !bCommitted {
		t.Fatal("A never held Q at position 1; the interleaving did not happen")
	}
	if !afterRefusal.seen {
		t.Fatal("A's link hold over P→Q was not refused: the stale view was trusted past the ledger")
	}
	// At the refusal A had rolled back what that candidate created — the
	// node hold on Q and every link hold — and kept what it did not: the
	// position-0 hold on P, a sibling's. B's committed 10 CPU sits on both.
	capacity := qos.Resources{CPU: 100, Memory: 1000}
	share := qos.Resources{CPU: 10, Memory: 100}
	if want := capacity.Sub(share); afterRefusal.q != want {
		t.Errorf("Q after the refused candidate: %v available, want %v (B's share only; A's hold rolled back)", afterRefusal.q, want)
	}
	if want := capacity.Sub(share).Sub(share); afterRefusal.p != want {
		t.Errorf("P after the refused candidate: %v available, want %v (B's share and A's position-0 hold)", afterRefusal.p, want)
	}
	for i, held := range afterRefusal.linkHeld {
		if held != 0 {
			t.Errorf("link %d of P→Q still carries %v of A's bandwidth after the rollback", route.Links[i], held)
		}
	}
	if err := env.Ledger.CheckInvariants(); err != nil {
		t.Fatalf("after A's walk: %v", err)
	}
	// Whatever A decided, committing it must keep the books sound, and
	// the winner cannot be the composition the ledger refused.
	if out.Success() {
		if nodeP, nodeQ := env.Catalog.Component(out.Best.Components[0]).Node, env.Catalog.Component(out.Best.Components[1]).Node; nodeP == p && nodeQ == q {
			t.Error("A's winner rides P→Q, which cannot carry both sessions")
		}
		if err := a.Commit(out); err != nil {
			t.Fatalf("A's commit: %v", err)
		}
	}
	if err := env.Ledger.CheckInvariants(); err != nil {
		t.Fatalf("after A's commit: %v", err)
	}
	for _, k := range route.Links {
		if got := env.Ledger.LinkAvailable(k); got < 0 {
			t.Errorf("link %d over-admitted: %v available", k, got)
		}
	}
}
