package core

import (
	"cmp"
	"math"
	"slices"
	"time"

	"repro/internal/component"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/qos"
	"repro/internal/state"
)

// hopChild is a probe mid-walk: the component chosen at its own hop, the
// QoS accumulated over assigned components and the virtual links between
// them, and the probe's own travel time. The rest of its assignment lives
// in the walk's shared cursor, which the depth-first expansion keeps in
// sync with the recursion path — so extending a probe never copies the
// whole assignment. Physically the paper's probes fork at split points
// and merge at the deputy (Figure 2); walking partial assignments in
// topological order produces the same component graphs and the same
// per-hop checks, with the branch merge performed incrementally.
type hopChild struct {
	choice  component.ComponentID
	acc     qos.Vector
	latency float64 // ms travelled
	id      int64   // tracer span ID; 0 when tracing is disabled (or root)
	bound   float64 // lower bound of Eq. 1 over the positions assigned so far
	rank    int     // index among its siblings in selection order
}

// walkState tracks the per-request probing context.
type walkState struct {
	req        *component.Request
	owner      state.Owner
	now        time.Duration // the walk's one read of Env.Now
	expires    time.Duration
	budget     int // remaining probe sends (MaxProbesPerRequest)
	maxLatency float64
	order      []int // graph positions in topological order
	// bounded makes the walk branch and bound: the algorithms that keep the
	// phi-minimal composition and draw nothing from Env.Rand mid-walk (ACP
	// under a guided selection, Optimal) drop a probe that cannot beat best.
	bounded bool
	best    *Composition // the incumbent, in the evaluation scratch; nil until a probe qualifies
	// coarseFloor says the floor under a bounded walk's unassigned
	// positions is built from the replica's ceilings. A re-composition
	// walk starts without it (its migration credit can exceed committed
	// availability) and any walk loses it at the first node it reads
	// above its ceiling; both then floor at capacity.
	coarseFloor bool
	// laidOut counts the depths whose link-fact blocks are placed: a
	// depth-first walk first reaches depth d before depth d+1.
	laidOut int
	factEnd int // where the next link-fact block starts
}

// walkScratch holds the composer-lifetime buffers that make the probe
// walk (near-)allocation-free in steady state. Buffers are reset, never
// freed, so capacity amortizes across requests. The candidate cache is
// invalidated per request by an epoch counter because the candidates may
// change between requests: discovery's outage view hides a crashed
// node's components until it repairs, and core's test fixtures move
// components with Catalog.Move.
//
// The availability view is guarded by the same epoch: the first time a
// walk touches a node or an overlay link it reads the owner-credited
// availability from the ledger, and every later conformance check and
// Eq. 1 term of that walk reuses the value — a returned probe carries
// the state it saw (§3.3 step 3); it does not go back for it. The view
// only ranks and prunes: every hold and the commit re-check the ledger
// atomically, so a view gone stale under a shared, locked ledger costs a
// dropped probe or a refused composition, never an over-admission.
//
// The hold marks, same epoch again, record which (position, node) and
// (position, link) transient holds this walk has already placed: a hop
// whose holds are all marked would get idempotent no-ops from the ledger
// and does not ask. A mark is set only when the whole hop succeeded — a
// rolled-back hop releases just what it created, so earlier marks stay
// true — and a mark that outlives its hold (a walk longer than HoldTTL)
// is one more stale view: holdComposition and the commit re-check.
//
// The link facts sit beside the views and hold what the walk works out
// about a virtual link from them: for a graph edge, which candidate the
// predecessor position holds and which candidate this position is offered
// decide the route, so its QoS, its bottleneck in the replica's aggregated
// snapshot and its bottleneck in the link view — all three frozen for the
// walk — are computed the first time the pair is asked about, not once per
// fan-out. One block per graph edge, [predecessor candidate][candidate],
// epoch-guarded like the views; the precise bottleneck is filled only when
// a probe is sent over the link, so the table reads no link a probe did
// not visit.
type walkScratch struct {
	numNodes int
	numLinks int

	// coarse is this composer's replica of the disseminated global state,
	// refreshed once per walk.
	coarse state.Replica

	cands     [][]component.ComponentID // per FunctionID, epoch-guarded
	candEpoch []uint64
	candIdx   []int32 // per ComponentID: its index in cands[its function], as of this walk's lookup
	epoch     uint64

	nodeView  []qos.Resources // per node, valid when nodeEpoch matches
	nodeEpoch []uint64
	linkView  []float64 // per overlay link, valid when linkEpoch matches
	linkEpoch []uint64

	heldNode []uint64 // [pos*numNodes+node] == epoch: hold placed this walk
	heldLink []uint64 // [pos*numLinks+link] == epoch: hold placed this walk

	// plan is the request's walk plan, built by Probe as it validates.
	plan component.Plan

	facts   []linkFact // the walk's link-fact blocks, one after another
	factOff []int      // per graph edge, in the order of the plan's predecessor windows: where its block starts
	predOff []int      // per position: where its predecessors' edges start in factOff

	cur       []component.ComponentID // DFS cursor assignment, one slot per position
	rank      []int                   // the cursor's sibling rank per depth
	bestComps []component.ComponentID // the incumbent's copy of cur
	bestRank  []int                   // and of rank

	floor []float64 // [i]: lower bound of what positions order[i:] add to phi; empty until a walk asks

	children [][]hopChild      // per-depth extendProbe output
	hopLinks []state.LinkShare // hopLinks result buffer
	shuffled []component.ComponentID
	unseen   []int        // routeAvail's links not yet in the view
	rows     [][]linkFact // factRows result: a link-fact row per predecessor
	rowFrom  []int        // and the node the cursor holds at each

	evalBuf [2]Composition // double-buffered composition evaluation
	evalIdx int
}

func newWalkScratch(env *Env) walkScratch {
	n := env.Mesh.NumNodes()
	f := env.Catalog.NumFunctions()
	links := env.Mesh.NumLinks()
	return walkScratch{
		numNodes:  n,
		numLinks:  links,
		cands:     make([][]component.ComponentID, f),
		candEpoch: make([]uint64, f),
		candIdx:   make([]int32, env.Catalog.NumComponents()),
		nodeView:  make([]qos.Resources, n),
		nodeEpoch: make([]uint64, n),
		linkView:  make([]float64, links),
		linkEpoch: make([]uint64, links),
	}
}

// beginWalk resets the per-request scratch state for req, whose plan is
// in the scratch.
func (c *Composer) beginWalk(req *component.Request) {
	sc := &c.scratch
	sc.epoch++
	sc.floor = sc.floor[:0]
	n := req.Graph.NumPositions()
	if cap(sc.cur) < n {
		sc.cur = make([]component.ComponentID, n)
		sc.rank = make([]int, n)
	} else {
		sc.rank = sc.rank[:n]
		sc.cur = sc.cur[:n]
		for i := range sc.cur {
			sc.cur[i] = 0
		}
	}
	sc.factOff = slices.Grow(sc.factOff[:0], len(req.Graph.Edges))[:len(req.Graph.Edges)]
	sc.predOff = slices.Grow(sc.predOff[:0], n)[:n]
	off := 0
	for p, preds := range sc.plan.Preds {
		sc.predOff[p] = off
		off += len(preds)
	}
	// Marks of earlier walks carry older epochs, so growing (zeroes) and
	// re-slicing (stale epochs) both start the walk with nothing marked.
	if cap(sc.heldNode) < n*sc.numNodes {
		sc.heldNode = make([]uint64, n*sc.numNodes)
		sc.heldLink = make([]uint64, n*sc.numLinks)
	}
	sc.heldNode = sc.heldNode[:n*sc.numNodes]
	sc.heldLink = sc.heldLink[:n*sc.numLinks]
	c.env.Global.Refresh(&sc.coarse)
	now := c.env.Now()
	bounded := c.cfg.Algorithm == AlgOptimal || c.cfg.Algorithm == AlgACP && c.cfg.Selection != SelectRandom
	c.walk = walkState{
		req:         req,
		owner:       state.Owner(req.ID),
		now:         now,
		expires:     now + c.cfg.HoldTTL,
		budget:      c.cfg.MaxProbesPerRequest,
		order:       sc.plan.Order,
		bounded:     bounded,
		coarseFloor: bounded && !c.recomposing,
	}
}

// nodeAvail is the walk's view of a node: the request's own-credited
// precise availability as the ledger had it when the walk first looked.
// The replica was refreshed when the walk began and the ledger is read
// only now, so a session another caller released in between can put the
// reading above the node's ceiling: the ceilings of this walk are then
// not bounds, and it finishes on the capacity floor.
func (c *Composer) nodeAvail(node int) qos.Resources {
	sc := &c.scratch
	if sc.nodeEpoch[node] != sc.epoch {
		avail := c.env.Ledger.NodeAvailableForAt(c.walk.now, c.walk.owner, node)
		sc.nodeView[node] = avail
		sc.nodeEpoch[node] = sc.epoch
		if c.walk.coarseFloor && !sc.coarse.Ceiling(node, c.env.Ledger.NodeCapacity(node)).Covers(avail) {
			c.walk.coarseFloor = false
			sc.floor = sc.floor[:0]
			c.floorOverruns.Inc()
		}
	}
	return sc.nodeView[node]
}

// linkAvail is nodeAvail for an overlay link's bandwidth.
func (c *Composer) linkAvail(link int) float64 {
	sc := &c.scratch
	if sc.linkEpoch[link] != sc.epoch {
		sc.linkView[link] = c.env.Ledger.LinkAvailableForAt(c.walk.now, c.walk.owner, link)
		sc.linkEpoch[link] = sc.epoch
	}
	return sc.linkView[link]
}

// routeAvail is the walk's view of a virtual link: the bottleneck over
// its overlay links, +Inf for a co-located route (footnote 4). The links
// the view lacks are read in one ledger call.
func (c *Composer) routeAvail(r overlay.Route) float64 {
	if r.CoLocated {
		return math.Inf(1)
	}
	sc := &c.scratch
	unseen := sc.unseen[:0]
	for _, link := range r.Links {
		if sc.linkEpoch[link] != sc.epoch {
			sc.linkEpoch[link] = sc.epoch
			unseen = append(unseen, link)
		}
	}
	if len(unseen) != 0 {
		c.env.Ledger.LinksAvailableForAt(c.walk.now, c.walk.owner, unseen, sc.linkView)
	}
	sc.unseen = unseen
	avail := math.Inf(1)
	for _, link := range r.Links {
		avail = min(avail, sc.linkView[link])
	}
	return avail
}

// linkFact is what a walk knows about the virtual link of one graph edge
// between one candidate of the predecessor position and one candidate of
// the edge's own position.
type linkFact struct {
	qos     qos.Vector // the route's QoS
	coarse  float64    // its bottleneck in the replica's aggregated snapshot
	precise float64    // its bottleneck in the walk's link view; valid when visited == epoch
	epoch   uint64
	visited uint64
}

// layoutFacts places the link-fact blocks of the edges into pos, which
// has k candidates. Every predecessor of pos is assigned, so its function
// has been looked up and its candidate count is known. Growing the table
// keeps what the walk has filled in so far.
func (c *Composer) layoutFacts(pos, k int) {
	w := &c.walk
	sc := &c.scratch
	for n, pred := range sc.plan.Preds[pos] {
		sc.factOff[sc.predOff[pos]+n] = w.factEnd
		w.factEnd += len(c.lookup(w.req.Graph.Functions[pred])) * k
	}
	if w.factEnd > len(sc.facts) {
		sc.facts = append(sc.facts, make([]linkFact, w.factEnd-len(sc.facts))...)
	}
	w.laidOut++
}

// factRows returns, per predecessor of pos, the link facts from the
// candidate the cursor holds there to each of pos's k candidates, and that
// candidate's node. The slices are scratch, valid until the next call.
func (c *Composer) factRows(pos, k int) ([][]linkFact, []int) {
	sc := &c.scratch
	rows, from := sc.rows[:0], sc.rowFrom[:0]
	for n, pred := range sc.plan.Preds[pos] {
		held := sc.cur[pred]
		off := sc.factOff[sc.predOff[pos]+n] + int(sc.candIdx[held])*k
		rows, from = append(rows, sc.facts[off:off+k]), append(from, c.env.Catalog.Component(held).Node)
	}
	sc.rows, sc.rowFrom = rows, from
	return rows, from
}

// fill returns f, the fact about the route from node from to node to,
// with QoS and coarse bottleneck filled.
func (c *Composer) fill(f *linkFact, from, to int) *linkFact {
	sc := &c.scratch
	if f.epoch != sc.epoch {
		r := c.route(from, to)
		f.qos = r.QoS
		f.coarse = sc.coarse.RouteAvailable(r)
		f.epoch = sc.epoch
	}
	return f
}

// linkPrecise is the link's bottleneck in the walk's link view, read the
// first time a probe is sent over it from node from to node to.
func (c *Composer) linkPrecise(f *linkFact, from, to int) float64 {
	sc := &c.scratch
	if f.visited != sc.epoch {
		f.precise = c.routeAvail(c.route(from, to))
		f.visited = sc.epoch
	}
	return f.precise
}

// lookup resolves a function's candidates, caching per request so the
// discovery system is charged once per function (§3.3 step 2).
func (c *Composer) lookup(f component.FunctionID) []component.ComponentID {
	sc := &c.scratch
	if int(f) < 0 || int(f) >= len(sc.cands) {
		// A function the catalog has never heard of; don't cache.
		return c.env.Registry.Lookup(f)
	}
	if sc.candEpoch[f] == sc.epoch {
		return sc.cands[f]
	}
	ids := c.env.Registry.Lookup(f)
	sc.cands[f] = ids
	sc.candEpoch[f] = sc.epoch
	for i, id := range ids {
		sc.candIdx[id] = int32(i)
	}
	return ids
}

// route returns the virtual link between two overlay nodes from the
// mesh's route table.
func (c *Composer) route(from, to int) overlay.Route {
	r, ok := c.env.Mesh.RouteBetween(from, to)
	if !ok {
		return unreachableRoute
	}
	return r
}

// unreachableRoute stands for a virtual link between disconnected nodes: Build
// keeps the overlay connected, so only a hand-assembled mesh has one. No
// QoS requirement admits it.
var unreachableRoute = overlay.Route{QoS: qos.Vector{Delay: math.Inf(1), LossCost: math.Inf(1)}}

// hopHeld reports whether this walk already placed the transient holds
// of a hop onto node over links at position pos.
func (c *Composer) hopHeld(pos, node int, links []state.LinkShare) bool {
	sc := &c.scratch
	if sc.heldNode[pos*sc.numNodes+node] != sc.epoch {
		return false
	}
	for _, l := range links {
		if sc.heldLink[pos*sc.numLinks+l.ID] != sc.epoch {
			return false
		}
	}
	return true
}

// holdHop places the transient holds of a hop onto node at position pos
// in one ledger call, all tagged by position so distinct positions of the
// request stack (footnote 7).
func (c *Composer) holdHop(pos, node int, links []state.LinkShare) state.HopResult {
	w := &c.walk
	return c.env.Ledger.HoldHopAt(w.now, w.owner, pos, []state.NodeShare{{ID: node, Amount: w.req.ResReq[pos]}}, links, w.expires)
}

// markHop records that the hop's holds are on the ledger.
func (c *Composer) markHop(pos, node int, links []state.LinkShare) {
	sc := &c.scratch
	sc.heldNode[pos*sc.numNodes+node] = sc.epoch
	for _, l := range links {
		sc.heldLink[pos*sc.numLinks+l.ID] = sc.epoch
	}
}

// probeWalk runs the hop-by-hop probing protocol (Figure 3) for the
// probing algorithms (ACP, Optimal, SP, RP): extend probes position by
// position in topological order, applying per-hop candidate selection,
// conformance checking and transient allocation, with the deputy scoring
// every probe that completes the graph as it returns and keeping the best
// qualified composition.
func (c *Composer) probeWalk(req *component.Request) (*Outcome, error) {
	c.beginWalk(req)
	w := &c.walk
	out := &Outcome{Request: req}
	tr := c.env.Tracer
	tr.RequestReceived(req.ID, req.Client)

	// Exhaustive-search accounting: the paper measures Optimal's
	// overhead as "the number of probes required by the exhaustive
	// search" (§4.2) — the full candidate tree, independent of the sound
	// early pruning our walk applies (dropping a probe whose prefix is
	// already unqualified, or already costs more than the incumbent,
	// cannot change which composition wins). Charge
	// that full cost up front and skip per-send counting below.
	exhaustive := c.cfg.Algorithm == AlgOptimal
	if exhaustive {
		total, width := int64(0), int64(1)
		for _, pos := range w.order {
			k := int64(len(c.lookup(req.Graph.Functions[pos])))
			width *= k
			if width > 1<<40 {
				width = 1 << 40 // clamp pathological fan-out
			}
			total += width
		}
		c.env.Counters.Probes.Add(total)
		out.ProbesSent = clampToInt(total)
	}

	// Probes expand depth-first: a probe tree in the real protocol fans
	// out in parallel, but expansion order does not change which
	// composition wins — except when the probe budget binds, where
	// depth-first guarantees the budget is spent completing compositions
	// rather than stranding every probe mid-graph. Depth-first is also
	// what gives a bounded walk its incumbent early.
	c.expand(out, 0, hopChild{})
	if !exhaustive {
		c.env.Counters.Probes.Add(int64(out.ProbesSent))
	}
	c.env.Counters.ProbeReturns.Add(int64(out.PathsReturned))
	out.Latency = 2 * time.Duration(w.maxLatency*float64(time.Millisecond))

	if w.best == nil {
		c.env.Ledger.ReleaseOwner(w.owner)
		tr.HoldReleased(req.ID, -1)
		tr.Decided(req.ID, req.Client, obs.ReasonNoComposition)
		return out, nil
	}
	best := w.best.copyTo(&out.best)
	// The deputy has decided: cancel the transient allocations of every
	// losing probe and keep only the winning composition reserved until
	// the confirmation message arrives (§3.3 step 4). Without this,
	// loser holds would squat on candidate nodes for the full timeout,
	// starving concurrent requests in proportion to the probe fan-out.
	c.env.Ledger.ReleaseOwner(w.owner)
	tr.HoldReleased(req.ID, -1)
	if c.cfg.TransientAllocation {
		if !c.holdComposition(best) {
			c.env.Ledger.ReleaseOwner(w.owner)
			tr.HoldReleased(req.ID, -1)
			tr.Decided(req.ID, req.Client, obs.ReasonNoComposition)
			return out, nil
		}
	}
	out.Best = best
	tr.Decided(req.ID, req.Client, "")
	return out, nil
}

// expand grows the probe tree depth-first from probe p at graph position
// order[idx]. The walk cursor holds p's assignment prefix.
func (c *Composer) expand(out *Outcome, idx int, p hopChild) {
	w := &c.walk
	sc := &c.scratch
	order := w.order
	if idx == len(order) {
		c.complete(out, p)
		return
	}
	if idx > 0 && c.cut(idx, p.bound) {
		// p passed the bound at its own hop; the incumbent has tightened
		// while its earlier siblings were expanded.
		prev := order[idx-1]
		c.env.Tracer.CandidatePruned(w.req.ID, p.id, 0, prev, c.env.Catalog.Component(sc.cur[prev]).Node, obs.ReasonBound)
		return
	}
	pos := order[idx]
	children := c.extendProbe(out, p, idx, pos, idx == 0)
	if p.id != 0 {
		// Close the parent's span: it survived its own hop and its
		// children (possibly zero) carry the walk on.
		c.env.Tracer.ProbeForwarded(w.req.ID, p.id, order[idx-1],
			c.env.Catalog.Component(sc.cur[order[idx-1]]).Node, len(children))
	}
	if w.bounded {
		// Lowest bound first, so the incumbent tightens early; equal bounds
		// keep selection order.
		slices.SortStableFunc(children, func(a, b hopChild) int { return cmp.Compare(a.bound, b.bound) })
	}
	for i := range children {
		sc.cur[pos] = children[i].choice
		sc.rank[idx] = children[i].rank
		c.expand(out, idx+1, children[i])
	}
}

// cut reports whether a probe with the positions order[idx:] still to
// assign, whose Eq. 1 terms so far join to bound, cannot beat the
// incumbent. The floor under the unassigned positions is each one's
// cheapest candidate at the most its node can have available: the
// ceiling of the coarse state the deputy already holds (the report plus
// the update threshold, state.Replica.Ceiling) — unlike the availability
// itself, which a probe learns only by visiting (§3.3) — or, for a walk
// without coarseFloor, the node's full capacity. It is computed once per
// walk (again after an overrun), and only once there is an incumbent.
func (c *Composer) cut(idx int, bound float64) bool {
	w := &c.walk
	sc := &c.scratch
	if !w.bounded || w.best == nil {
		return false
	}
	mode := c.cfg.Phi
	if len(sc.floor) == 0 {
		n := len(w.order)
		sc.floor = slices.Grow(sc.floor, n+1)[:n+1]
		sc.floor[n] = 0
		for i := n - 1; i >= 0; i-- {
			pos := w.order[i]
			least := math.Inf(1)
			for _, id := range c.lookup(w.req.Graph.Functions[pos]) {
				least = min(least, BoundNode(w.req.ResReq[pos], c.mostAvailable(c.env.Catalog.Component(id).Node)))
			}
			sc.floor[i] = BoundJoin(mode, sc.floor[i+1], least)
		}
	}
	return BoundExceeds(mode, w.req, BoundJoin(mode, bound, sc.floor[idx]), w.best.Phi)
}

// mostAvailable is the most a node can have available as far as the walk
// knows without visiting it: its ceiling in the coarse state, or its
// capacity for a walk without coarseFloor.
func (c *Composer) mostAvailable(node int) qos.Resources {
	most := c.env.Ledger.NodeCapacity(node)
	if c.walk.coarseFloor {
		most = c.scratch.coarse.Ceiling(node, most)
	}
	return most
}

// complete ends a probe that assigned every position: it travels back to
// the deputy (§3.3 step 3), which evaluates it against the constraints
// (Eqs. 2-5) using precise probed state and keeps it as the incumbent if
// it wins so far: the phi-minimal qualified composition for
// ACP/Optimal/RP, ties going to the first in selection-order DFS whatever
// order the bounded walk visits them in; a uniformly random qualified one
// for SP (a reservoir sample).
func (c *Composer) complete(out *Outcome, p hopChild) {
	w := &c.walk
	sc := &c.scratch
	node := c.env.Catalog.Component(sc.cur[w.order[len(w.order)-1]]).Node
	l := p.latency + c.route(node, w.req.Client).QoS.Delay
	if l > w.maxLatency {
		w.maxLatency = l
	}
	c.env.Tracer.ProbeReturned(w.req.ID, p.id, node, l)
	out.PathsReturned++
	comp, ok := c.evaluate(sc.cur)
	if !ok {
		return
	}
	out.Qualified++
	switch {
	case w.best == nil:
	case c.cfg.Algorithm == AlgSP:
		if c.env.Rand.Intn(out.Qualified) != 0 {
			return
		}
	case comp.Phi > w.best.Phi || comp.Phi == w.best.Phi && slices.Compare(sc.rank, sc.bestRank) > 0:
		return
	}
	sc.bestComps = append(sc.bestComps[:0], sc.cur...)
	sc.bestRank = append(sc.bestRank[:0], sc.rank...)
	comp.Components = sc.bestComps
	w.best = comp
	sc.evalIdx ^= 1 // protect the incumbent from the next evaluate
}

// holdComposition places aggregated transient holds covering exactly one
// composition's demands, all or nothing, in one ledger call. It reports
// false if they cannot be placed (impossible within a single probing
// walk, but defended regardless); the ledger has then kept none of them.
func (c *Composer) holdComposition(comp *Composition) bool {
	w := &c.walk
	c.kern.Stack(w.req, comp.Components, comp.Routes)
	nodes, links := c.kern.Shares()
	if c.env.Ledger.HoldHopAt(w.now, w.owner, 0, nodes, links, w.expires) != state.HopHeld {
		return false
	}
	for _, nd := range nodes {
		c.env.Tracer.HoldAcquired(w.req.ID, 0, -1, nd.ID)
	}
	return true
}

// hopLinks lists the request's bandwidth on every overlay link of the
// virtual links from each already-assigned predecessor of pos to the
// candidate node, in route order, for the hop's holds to be placed
// along. The result slice is a shared scratch buffer, valid only until
// the next call.
func (c *Composer) hopLinks(pos, candNode int) []state.LinkShare {
	sc := &c.scratch
	links := sc.hopLinks[:0]
	for _, pred := range sc.plan.Preds[pos] {
		for _, link := range c.route(c.env.Catalog.Component(sc.cur[pred]).Node, candNode).Links {
			links = append(links, state.LinkShare{ID: link, Amount: c.walk.req.BandwidthReq})
		}
	}
	sc.hopLinks = links
	return links
}

// extendProbe performs one hop of per-hop probe processing (§3.3 step 2)
// for probe p choosing a component for graph position pos: discover
// candidates, select which to probe, send child probes, apply the
// precise conformance check and transient allocation at each candidate,
// and return the surviving child probes (valid until the next
// extendProbe call at the same depth). isSource marks the graph's source
// position, whose probe hop starts from the deputy node.
func (c *Composer) extendProbe(out *Outcome, p hopChild, depth, pos int, isSource bool) []hopChild {
	w := &c.walk
	sc := &c.scratch
	fn := w.req.Graph.Functions[pos]
	candidates := c.lookup(fn)
	if len(candidates) == 0 {
		return nil
	}
	if depth == w.laidOut {
		c.layoutFacts(pos, len(candidates))
	}
	tr := c.env.Tracer
	if c.hopLoses(p, depth, pos, candidates) {
		// Selection reads no ledger state and draws nothing, and the sender
		// would cut all it picked: skipping it moves only trace events.
		if tr.Enabled() {
			for _, id := range candidates {
				tr.CandidatePruned(w.req.ID, 0, p.id, pos, c.env.Catalog.Component(id).Node, obs.ReasonBound)
			}
		}
		return nil
	}
	selected := c.selectCandidates(p, pos, candidates)
	rows, from := c.factRows(pos, len(candidates))

	for len(sc.children) <= depth {
		sc.children = append(sc.children, nil)
	}
	children := sc.children[depth][:0]
	for i, id := range selected {
		if w.budget <= 0 {
			if tr.Enabled() {
				for _, cut := range selected[i:] {
					tr.CandidatePruned(w.req.ID, 0, p.id, pos, c.env.Catalog.Component(cut).Node, obs.ReasonBudget)
				}
			}
			break
		}
		cand := c.env.Catalog.Component(id)
		if c.senderCut(p, depth, pos, cand.Node) {
			tr.CandidatePruned(w.req.ID, 0, p.id, pos, cand.Node, obs.ReasonBound)
			continue
		}
		w.budget--
		// Sending the probe to the candidate costs one message whether
		// or not the candidate turns out to qualify; probeWalk charges the
		// walk's total to the shared counter once. Optimal's full
		// exhaustive cost was charged up front there.
		if c.cfg.Algorithm != AlgOptimal {
			out.ProbesSent++
		}

		candIdx := int(sc.candIdx[id])
		var linkQoS qos.Vector
		for n, row := range rows {
			linkQoS = linkQoS.Add(c.fill(&row[candIdx], from[n], cand.Node).qos)
		}
		acc := p.acc.Add(linkQoS).Add(cand.QoS)

		// The probe physically travels from the previous hop's node (the
		// deputy for the source position).
		var travel float64
		if isSource {
			travel = c.route(w.req.Client, cand.Node).QoS.Delay
		} else {
			travel = c.fill(&rows[0][candIdx], from[0], cand.Node).qos.Delay
		}
		latency := p.latency + travel
		if latency > w.maxLatency {
			w.maxLatency = latency
		}

		var pid int64
		if tr.Enabled() {
			pid = tr.NextProbeID()
			tr.ProbeSpawned(w.req.ID, pid, pos, cand.Node, latency)
		}

		// Precise conformance check at the candidate's node: accumulated
		// QoS against the user requirement (Eq. 6), application-specific
		// constraints (security level, §6), and precise local resource
		// states (Eqs. 7-8). Unqualified probes are dropped immediately
		// to reduce probing overhead.
		if acc.MaxRatio(w.req.QoSReq) > 1 {
			tr.CandidatePruned(w.req.ID, pid, p.id, pos, cand.Node, obs.ReasonQoS)
			continue
		}
		if cand.Security < w.req.MinSecurity {
			tr.CandidatePruned(w.req.ID, pid, p.id, pos, cand.Node, obs.ReasonSecurity)
			continue
		}
		avail := c.nodeAvail(cand.Node)
		if !avail.Covers(w.req.ResReq[pos]) {
			tr.CandidatePruned(w.req.ID, pid, p.id, pos, cand.Node, obs.ReasonResources)
			continue
		}
		bound := BoundJoin(c.cfg.Phi, p.bound, BoundNode(w.req.ResReq[pos], avail))
		feasible := true
		for n, row := range rows {
			bw := c.linkPrecise(c.fill(&row[candIdx], from[n], cand.Node), from[n], cand.Node)
			if bw < w.req.BandwidthReq {
				feasible = false
				break
			}
			bound = BoundJoin(c.cfg.Phi, bound, BoundLink(w.req.BandwidthReq, bw))
		}
		if !feasible {
			tr.CandidatePruned(w.req.ID, pid, p.id, pos, cand.Node, obs.ReasonBandwidth)
			continue
		}
		// The probe was sent and is qualified so far, but what it has
		// already accumulated — the node as read now, and the link terms
		// the sender cut leaves out — cannot beat the incumbent: it stops
		// here, before placing a hold, and does not return.
		if c.cut(depth+1, bound) {
			tr.CandidatePruned(w.req.ID, pid, p.id, pos, cand.Node, obs.ReasonBound)
			continue
		}
		child := hopChild{choice: id, acc: acc, latency: latency, id: pid, bound: bound, rank: i}

		// Transient resource allocation (§3.3 step 2): reserve once per
		// component (tag = position) and per virtual link hop, all or
		// nothing. A probe that cannot secure its allocation is dropped,
		// and the ledger has given back exactly the holds the hop created,
		// so a loser's partial reservation cannot squat on resources that
		// later candidates of the same request are raw-checked against.
		// Holds created by sibling probes (idempotent no-ops here) stay
		// untouched — and a hop whose holds this walk has all placed
		// already would get only such no-ops, so it does not go to the
		// ledger at all.
		if c.cfg.TransientAllocation {
			links := c.hopLinks(pos, cand.Node)
			if !c.hopHeld(pos, cand.Node, links) {
				switch c.holdHop(pos, cand.Node, links) {
				case state.HopNodeRefused:
					tr.CandidatePruned(w.req.ID, pid, p.id, pos, cand.Node, obs.ReasonHoldNode)
					continue
				case state.HopLinkRefused:
					// The node was held, then given back with the links.
					tr.HoldAcquired(w.req.ID, pid, pos, cand.Node)
					tr.CandidatePruned(w.req.ID, pid, p.id, pos, cand.Node, obs.ReasonHoldLink)
					continue
				}
				c.markHop(pos, cand.Node, links)
			}
			tr.HoldAcquired(w.req.ID, pid, pos, cand.Node)
		}

		children = append(children, child)
	}
	sc.children[depth] = children
	return children
}

// senderCut reports whether p's sender can show, without a ledger read,
// that a candidate of pos on node cannot beat the incumbent: what the walk
// knows of the node (its frozen read if a probe of this walk visited it,
// else the most the floor allows) joined to p's bound. It is never sent.
func (c *Composer) senderCut(p hopChild, depth, pos, node int) bool {
	sc := &c.scratch
	if !c.walk.bounded || c.walk.best == nil {
		return false
	}
	most := sc.nodeView[node]
	if sc.nodeEpoch[node] != sc.epoch {
		most = c.mostAvailable(node)
	}
	return c.cut(depth+1, BoundJoin(c.cfg.Phi, p.bound, BoundNode(c.walk.req.ResReq[pos], most)))
}

// hopLoses reports whether the sender cut would drop every candidate.
func (c *Composer) hopLoses(p hopChild, depth, pos int, candidates []component.ComponentID) bool {
	for _, id := range candidates {
		if !c.senderCut(p, depth, pos, c.env.Catalog.Component(id).Node) {
			return false
		}
	}
	return true
}

// selectCandidates picks the M = ceil(alpha*k) next-hop candidates to
// probe (§3.5). For Optimal every candidate is probed. For the guided
// policies the kernel qualifies and ranks the candidates against the
// coarse global state, which this engine reads from its replica of
// state.Global; SelectRandom (RP) picks uniformly without consulting the
// global state. The returned slice is scratch, valid until the next
// selectCandidates call.
func (c *Composer) selectCandidates(p hopChild, pos int, candidates []component.ComponentID) []component.ComponentID {
	if c.cfg.Algorithm == AlgOptimal {
		return candidates
	}
	w := &c.walk
	sc := &c.scratch
	tr := c.env.Tracer
	if c.cfg.Selection == SelectRandom {
		m := probeWidth(c.cfg.ProbingRatio, len(candidates))
		if m >= len(candidates) {
			return candidates
		}
		picked := append(sc.shuffled[:0], candidates...)
		c.env.Rand.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
		if tr.Enabled() {
			for _, cut := range picked[m:] {
				tr.CandidatePruned(w.req.ID, 0, p.id, pos, c.env.Catalog.Component(cut).Node, obs.ReasonRandomRank)
			}
		}
		sc.shuffled = picked
		return picked[:m]
	}

	rows, from := c.factRows(pos, len(candidates))
	hop := Hop{Req: w.req, Pos: pos, Parent: p.id, Tracer: tr}
	for i, id := range candidates {
		cand := c.env.Catalog.Component(id)
		var linkQoS qos.Vector
		routeBW := math.Inf(1)
		for n, row := range rows {
			f := c.fill(&row[i], from[n], cand.Node)
			linkQoS = linkQoS.Add(f.qos)
			routeBW = min(routeBW, f.coarse)
		}
		c.kern.Consider(&hop, cand, p.acc.Add(linkQoS).Add(cand.QoS), sc.coarse.Nodes[cand.Node], routeBW)
	}
	return c.kern.Select(&hop, c.cfg.Selection, c.cfg.ProbingRatio, len(candidates))
}

// copyTo deep-copies a composition out of the evaluation scratch into
// dst, so a winner stays valid across later walks, and returns dst.
func (comp *Composition) copyTo(dst *Composition) *Composition {
	*dst = Composition{
		Components: slices.Clone(comp.Components),
		Routes:     slices.Clone(comp.Routes),
		QoS:        comp.QoS,
		Phi:        comp.Phi,
	}
	return dst
}

// evaluate builds the full composition for an assignment and checks the
// optimization constraints: function coverage is structural (Eq. 2), the
// aggregated QoS must satisfy the requirement (Eq. 3), and residual node
// resources and link bandwidths must stay non-negative (Eqs. 4-5)
// against the request's own-credited precise availability. The returned
// composition lives in the double-buffered evaluation scratch and aliases
// assign: it is valid until the buffer is flipped twice (complete flips on
// keep, and gives the incumbent its own copy of the assignment).
func (c *Composer) evaluate(assign []component.ComponentID) (*Composition, bool) {
	req := c.walk.req
	sc := &c.scratch
	comp := &sc.evalBuf[sc.evalIdx]
	comp.Components = assign
	comp.Routes = comp.Routes[:0]
	comp.QoS = qos.Vector{}
	comp.Phi = 0
	for _, id := range assign {
		chosen := c.env.Catalog.Component(id)
		if chosen.Security < req.MinSecurity {
			return nil, false
		}
		comp.QoS = comp.QoS.Add(chosen.QoS)
	}
	for _, e := range req.Graph.Edges {
		from := c.env.Catalog.Component(assign[e.From]).Node
		to := c.env.Catalog.Component(assign[e.To]).Node
		route := c.route(from, to)
		comp.Routes = append(comp.Routes, route)
		comp.QoS = comp.QoS.Add(route.QoS)
	}
	if comp.QoS.MaxRatio(req.QoSReq) > 1 {
		return nil, false
	}

	nodes, links := c.kern.Stack(req, assign, comp.Routes)
	for i := range nodes {
		nodes[i].Avail = c.nodeAvail(nodes[i].Node)
	}
	for i := range links {
		links[i].Avail = c.linkAvail(links[i].Link)
	}
	phi, ok := c.kern.Score(req, assign, comp.Routes, c.cfg.Phi)
	if !ok {
		return nil, false
	}
	comp.Phi = phi
	return comp, true
}

// probeDirect implements the Random and Static heuristics: choose one
// candidate per position outright, verify the composition with a single
// probe along it, and use it if qualified.
func (c *Composer) probeDirect(req *component.Request) (*Outcome, error) {
	c.beginWalk(req)
	w := &c.walk
	sc := &c.scratch
	out := &Outcome{Request: req}
	tr := c.env.Tracer
	tr.RequestReceived(req.ID, req.Client)

	n := req.Graph.NumPositions()
	assign := sc.cur
	for pos := 0; pos < n; pos++ {
		candidates := c.lookup(req.Graph.Functions[pos])
		if len(candidates) == 0 {
			tr.Decided(req.ID, req.Client, obs.ReasonNoComposition)
			return out, nil
		}
		switch c.cfg.Algorithm {
		case AlgRandom:
			assign[pos] = candidates[c.env.Rand.Intn(len(candidates))]
		default: // AlgStatic: a fixed choice per function
			assign[pos] = candidates[0]
		}
	}

	// One verification probe visits each chosen component in turn; each
	// hop is charged as one probe message.
	c.env.Counters.Probes.Add(int64(n))
	out.ProbesSent = n
	prev := req.Client
	latency := 0.0
	var lastPid int64
	for pos, id := range assign {
		node := c.env.Catalog.Component(id).Node
		latency += c.route(prev, node).QoS.Delay
		prev = node
		if tr.Enabled() {
			pid := tr.NextProbeID()
			tr.ProbeSpawned(req.ID, pid, pos, node, latency)
			if pos < n-1 {
				tr.ProbeForwarded(req.ID, pid, pos, node, 1)
			} else {
				lastPid = pid
			}
		}
	}
	latency += c.route(prev, req.Client).QoS.Delay
	if lastPid != 0 {
		tr.ProbeReturned(req.ID, lastPid, prev, latency)
	}
	w.maxLatency = latency
	c.env.Counters.ProbeReturns.Add(1)
	out.PathsReturned = 1
	out.Latency = 2 * time.Duration(w.maxLatency*float64(time.Millisecond))

	scratchComp, ok := c.evaluate(assign)
	if !ok {
		tr.Decided(req.ID, req.Client, obs.ReasonNoComposition)
		return out, nil
	}
	comp := scratchComp.copyTo(&out.best)
	if c.cfg.TransientAllocation {
		// The verification probe transiently reserves what it visits, hop
		// by hop as a walk does, so the allocation survives until the
		// confirmation arrives.
		for pos, id := range assign {
			node := c.env.Catalog.Component(id).Node
			if c.holdHop(pos, node, c.hopLinks(pos, node)) != state.HopHeld {
				c.env.Ledger.ReleaseOwner(w.owner)
				tr.HoldReleased(req.ID, -1)
				tr.Decided(req.ID, req.Client, obs.ReasonNoComposition)
				return out, nil
			}
			tr.HoldAcquired(req.ID, 0, pos, node)
		}
	}
	out.Qualified = 1
	out.Best = comp
	tr.Decided(req.ID, req.Client, "")
	return out, nil
}

// clampToInt narrows an int64 probe count to int without overflow. The
// accounting loop above clamps the per-position width, not the running
// total, so on 32-bit platforms the total can exceed MaxInt32 and a
// plain conversion would wrap negative.
func clampToInt(v int64) int {
	if v > math.MaxInt {
		return math.MaxInt
	}
	return int(v)
}
