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
// one locked ledger. A (exhaustive, so on an empty ledger its first
// source probe is the catalog's first candidate) walks a triangle whose
// last position is fed from the source and from the middle: its hop onto
// Q at position 1 reads node Q and the route P→Q into its view and holds
// them. When that source probe is forwarded — after the reads, before
// any position-2 hop — B composes and commits a session over the same
// route that takes most of what is left on its bottleneck link. A's hop
// onto Q at position 2 then crosses P→Q again on its view, which still
// says the route has room; the ledger refuses the hop at a link, the hop
// leaves the ledger as it found it (its node hold on Q included), and
// nothing is over-admitted.
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

	share := qos.Resources{CPU: 10, Memory: 100}
	reqA := &component.Request{
		ID: 1,
		Graph: &component.Graph{
			Functions: []component.FunctionID{fx, fy, fy},
			Edges:     []component.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 0, To: 2}},
		},
		QoSReq:       qos.Vector{Delay: 1e6, LossCost: qos.LossCost(0.9)},
		ResReq:       []qos.Resources{share, share, share},
		BandwidthReq: bottleneck * 0.4,
		Client:       p,
		Duration:     time.Minute,
	}
	// B fits beside A's position-1 hold on P→Q (0.4 + 0.5), not beside a
	// second one (0.4 + 0.5 + 0.4).
	reqB := &component.Request{
		ID:           2,
		Graph:        component.NewPathGraph([]component.FunctionID{fx, fy}),
		QoSReq:       reqA.QoSReq,
		ResReq:       []qos.Resources{share, share},
		BandwidthReq: bottleneck * 0.5,
		Client:       p,
		Duration:     time.Minute,
	}

	envB := env
	envB.Registry = discovery.NewRegistry(env.Catalog, env.Mesh.NumNodes(), env.Counters)
	envB.Rand = rand.New(rand.NewSource(2))
	b := mustComposer(t, envB, Config{Algorithm: AlgStatic, HoldTTL: time.Minute, TransientAllocation: true})

	var (
		bCommitted bool
		beforeHop  ledgerSnapshot // at A's latest position-2 probe onto Q, after B committed
		refused    int            // A's position-2 hops onto Q the ledger refused at a link
	)
	envA := env
	envA.Tracer = obs.New(sinkFunc(func(e obs.Event) {
		if e.Req != reqA.ID {
			return
		}
		switch {
		case e.Type == obs.EventProbeForwarded && e.Pos == 0 && !bCommitted:
			if e.Node != p {
				t.Errorf("A's first source probe went to node %d, not P = %d", e.Node, p)
				return
			}
			// A's source probe at P has been forwarded: its hop onto Q at
			// position 1 read Q and P→Q into the view; no position-2 hop
			// has been placed.
			bCommitted = true
			out, err := b.Probe(reqB)
			if err != nil || !out.Success() {
				t.Errorf("B's probe inside A's walk: %v, success %v", err, out != nil && out.Success())
				return
			}
			if err := b.Commit(out); err != nil {
				t.Errorf("B's commit inside A's walk: %v", err)
			}
		case e.Type == obs.EventProbeSpawned && e.Pos == 2 && e.Node == q && bCommitted:
			beforeHop = snapshotLedger(env)
		case e.Type == obs.EventCandidatePruned && e.Pos == 2 && e.Node == q && e.Reason == obs.ReasonHoldLink:
			refused++
			after := snapshotLedger(env)
			if after.nodes[q] != beforeHop.nodes[q] {
				t.Errorf("Q after a refused hop: %v available, %v before it (its node hold survived)", after.nodes[q], beforeHop.nodes[q])
			}
			for k := range after.links {
				if after.links[k] != beforeHop.links[k] {
					t.Errorf("link %d after a refused hop: %v available, %v before it (a link hold survived)", k, after.links[k], beforeHop.links[k])
				}
			}
		}
	}))
	a := mustComposer(t, envA, Config{Algorithm: AlgOptimal, HoldTTL: time.Minute, TransientAllocation: true})

	out, err := a.Probe(reqA)
	if err != nil {
		t.Fatal(err)
	}
	if !bCommitted {
		t.Fatal("A's source probe was never forwarded; the interleaving did not happen")
	}
	if refused == 0 {
		t.Fatal("no hop of A onto Q at position 2 was refused at a link: the stale view was trusted past the ledger")
	}
	if err := env.Ledger.CheckInvariants(); err != nil {
		t.Fatalf("after A's walk: %v", err)
	}
	// Whatever A decided, committing it must keep the books sound, and
	// the winner cannot be a composition the ledger refused.
	if out.Success() {
		comps := out.Best.Components
		if env.Catalog.Component(comps[0]).Node == p && env.Catalog.Component(comps[2]).Node == q {
			t.Error("A's winner holds Q at position 2 over P→Q, the hop the ledger refused")
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
