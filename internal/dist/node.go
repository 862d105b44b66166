package dist

import (
	"math"
	"slices"
	"time"

	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/qos"
	"repro/internal/state"
)

// participant is one node of a decided composition with the request's
// stacked demand on it. A composition lists them by ascending node ID,
// the order commit, rollback and release fan out in.
type participant struct {
	node   int
	amount qos.Resources
	acked  bool
}

// node is one stream processing host: a goroutine owning its end-system
// resource state, its coarse view of everyone else, and its share of the
// protocol.
type node struct {
	c       *Cluster
	id      int
	mailbox *mailbox
	quit    chan struct{}

	capacity  qos.Resources
	committed qos.Resources
	holdTable
	commits      map[int64]qos.Resources // owner -> committed amount
	view         []qos.Resources
	lastReported qos.Resources
	pending      map[int64]*request
	down         bool         // inside a scheduled outage
	spare        []*hopRecord // a decided request's returns, cleared, for the next

	kern *core.Kernel // selection, stacking and Eq. 1 scratch
	// Scratch of the return being evaluated: its per-edge routes, its
	// assignment by position, and by hop the availability carried back
	// and the host.
	routes []overlay.Route
	assign []component.ComponentID
	avails []qos.Resources
	hosts  []int
}

func newNode(c *Cluster, id int) *node {
	n := &node{
		c:       c,
		id:      id,
		mailbox: newMailbox(c.cfg.mailboxSize),
		quit:    make(chan struct{}),
		commits: make(map[int64]qos.Resources),
		view:    make([]qos.Resources, c.mesh.NumNodes()),
		pending: make(map[int64]*request),
		kern:    core.NewKernel(c.catalog),
	}
	n.capacity = c.cfg.NodeCapacity
	n.lastReported = n.capacity
	for i := range n.view {
		n.view[i] = c.cfg.NodeCapacity
	}
	return n
}

// send enqueues a message, reporting false if the mailbox is full. State
// broadcasts tolerate drops (the view just goes stale); protocol
// messages treat a full mailbox as an overloaded peer.
func (n *node) send(m *message) bool {
	n.c.inflight.Add(1) // before the enqueue: no visible-but-uncounted window
	if n.mailbox.push(m) {
		return true
	}
	n.c.inflight.Add(-1)
	return false
}

// sendBlocking enqueues a message, waiting for mailbox space; it gives
// up when the node shuts down. Used for the deputy's own timer events,
// which must not be lost to a momentarily full mailbox.
func (n *node) sendBlocking(m message) {
	n.c.inflight.Add(1)
	if !n.mailbox.pushWait(&m, n.quit) {
		n.c.inflight.Add(-1)
	}
}

func (n *node) run() {
	var sweepC <-chan time.Time
	if n.c.sweepEvery > 0 {
		ticker := n.c.clock.NewTicker(n.c.sweepEvery)
		defer ticker.Stop()
		sweepC = ticker.C()
	}
	for {
		select {
		case <-n.quit:
			return
		case <-n.mailbox.wake:
			n.step(&message{}) // a stale token finds the mailbox empty
		case <-sweepC:
			n.checkCrash()
			n.sweep()
		}
	}
}

// step moves the oldest queued message into m and dispatches it, applying
// any due crash/restart transition first; false when the mailbox is empty.
func (n *node) step(m *message) bool {
	ok := n.mailbox.pop(m)
	if ok {
		n.checkCrash()
		n.dispatch(m)
		n.c.inflight.Add(-1) // dispatch done: every send it made is counted
	}
	return ok
}

// sweep is the periodic hold-expiry pass: transient allocations
// orphaned by lost probes (or lost commit traffic) free their resources
// at TTL instead of lingering until the next on-demand availability
// check. Release tombstones age out on the same pass.
func (n *node) sweep() {
	if expired := n.purgeHolds(n.c.clock.Now()); expired > 0 {
		n.c.tracer.HoldSwept(n.id, expired)
		n.c.ins.holdsSwept.Add(int64(expired))
	}
}

// checkCrash applies the injector's outage schedule: on the down
// transition volatile state is lost, on the up transition the node
// rejoins and re-announces itself.
func (n *node) checkCrash() {
	if n.c.faults == nil {
		return
	}
	down := n.c.faults.Down(n.id)
	if down == n.down {
		return
	}
	n.down = down
	if down {
		n.crash()
	} else {
		n.restart()
	}
}

// crash models the outage taking the protocol engine down: transient
// holds and deputy-side bookkeeping are in-memory and vanish; the
// committed ledger is modeled as durable (it survives restart), so
// session teardown still balances. Every in-flight request this node
// deputies is failed: mid-commit ones roll back (releasing every
// participant, who refuse any still-in-flight commit via tombstones),
// collecting ones are answered with a clean failure so the caller can
// retry instead of hanging.
func (n *node) crash() {
	n.c.tracer.NodeCrashed(n.id)
	n.c.ins.nodeCrashes.Inc()
	n.holds = n.holds[:0]
	n.heldTotal = qos.Resources{}
	ids := make([]int64, 0, len(n.pending)) // failed in a reproducible order
	for id := range n.pending {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, reqID := range ids {
		p := n.pending[reqID]
		if p.comp != nil {
			n.rollback(p, reqID, obs.ReasonNodeCrash)
			continue
		}
		n.refuse(p, obs.ReasonNodeDown)
	}
}

// refuse answers a request that found no composition.
func (n *node) refuse(p *request, reason obs.Reason) {
	delete(n.pending, p.req.ID)
	n.c.tracer.Decided(p.req.ID, n.id, reason)
	n.c.ins.noComposition.Inc()
	p.reply <- composeReply{err: ErrNoComposition}
}

// restart brings the node back: views may be stale (they refresh from
// broadcasts) and the fresh availability is re-announced.
func (n *node) restart() {
	n.c.tracer.NodeRestarted(n.id)
	n.c.ins.nodeRestarts.Inc()
	// Force the next broadcast check to fire by invalidating what peers
	// last heard from us.
	n.lastReported = qos.Resources{CPU: math.Inf(1), Memory: math.Inf(1)}
	n.maybeBroadcast()
}

func (n *node) dispatch(m *message) {
	if n.down {
		n.dispatchDown(m)
		return
	}
	switch m.kind {
	case msgCompose:
		n.onCompose(m)
	case msgProbe:
		n.onProbe(m)
	case msgReturn:
		if p, ok := n.pending[m.reqID]; ok && p.comp == nil { // still collecting
			p.returns = append(p.returns, m.hop)
		}
	case msgDecide:
		n.onDecide(m.reqID)
	case msgCommit:
		n.onCommit(m.reqID, m.amount, m.node)
	case msgCommitAck:
		n.onCommitAck(m.reqID, m.node, m.ok)
	case msgCommitTimeout:
		if p, ok := n.pending[m.reqID]; ok && p.comp != nil {
			n.rollback(p, m.reqID, obs.ReasonCommitTimeout) // overdue acks are failure
		}
	case msgRelease:
		n.onRelease(m.reqID)
	case msgState:
		n.view[m.node] = m.amount
	}
}

// dispatchDown handles traffic arriving during an outage: the protocol
// engine is down — probes and commit traffic are lost, compose requests
// are refused so callers fail fast (and may retry) — while the durable
// local ledger still applies releases.
func (n *node) dispatchDown(m *message) {
	switch m.kind {
	case msgCompose:
		m.rq.reply <- composeReply{err: ErrNoComposition}
	case msgProbe:
		n.c.tracer.ProbeDropped(m.reqID, m.probe, m.idx, n.id, obs.ReasonNodeDown)
		n.c.ins.probesDropped.Inc()
	case msgRelease:
		n.onRelease(m.reqID)
	default:
		// return/commit/ack/timeout/state traffic dies with the engine.
	}
}

// maybeBroadcast applies the threshold-triggered global update rule
// (§3.2): when committed availability drifts more than the threshold of
// capacity, report the fresh value to every node (best effort).
func (n *node) maybeBroadcast() {
	avail := n.capacity.Sub(n.committed)
	th := n.c.cfg.UpdateThreshold
	if math.Abs(avail.CPU-n.lastReported.CPU) <= th*n.capacity.CPU &&
		math.Abs(avail.Memory-n.lastReported.Memory) <= th*n.capacity.Memory {
		return
	}
	n.lastReported = avail
	msg := message{kind: msgState, node: n.id, amount: avail}
	for _, peer := range n.c.nodes {
		if peer.id == n.id {
			peer.view[n.id] = avail
			continue
		}
		n.c.deliver(peer.id, &msg, faults.KindState) // drops are tolerated: the view stays stale
	}
}

// onCompose initiates probing as the deputy node. The request's record
// arrives with the plan submit built as it validated the request and its
// first hop block; the deputy keeps its pending state in it, and every
// probe of the request carries a pointer to it.
func (n *node) onCompose(msg *message) {
	p := msg.rq
	reqID := p.req.ID
	n.c.tracer.RequestReceived(reqID, n.id)
	p.composeStart, p.returns, n.spare = n.c.clock.Now(), n.spare, nil
	n.pending[reqID] = p

	if n.fanOut(p, 0, nil, msg.alpha, 0) == 0 {
		n.refuse(p, obs.ReasonNoComposition)
		return
	}
	n.c.clock.AfterFunc(n.c.cfg.CollectTimeout, func() {
		n.sendBlocking(message{kind: msgDecide, reqID: reqID})
	})
}

// fanOut selects candidates for position rq.plan.Order[idx] and sends one
// probe to each chosen candidate's host, returning how many were sent. The
// kernel qualifies and ranks (§3.5); this engine supplies the coarse
// state — the node's view of its peers and the link ledger. prefix is the
// last hop of the probe being extended (nil at the deputy's first hop)
// and parent its span, to which selection prunes are attributed.
func (n *node) fanOut(rq *request, idx int, prefix *hopRecord, alpha float64, parent int64) int {
	req := &rq.req
	pos := rq.plan.Order[idx]
	tr := n.c.tracer
	acc := prefix.accumulated()
	candidates := n.c.catalog.Candidates(req.Graph.Functions[pos])
	hop := core.Hop{Req: req, Pos: pos, Parent: parent, Tracer: tr}
	for _, id := range candidates {
		cand := n.c.catalog.Component(id)
		linkQoS, routeBW := n.predecessorRoutes(&rq.plan, idx, prefix, cand.Node)
		n.kern.Consider(&hop, cand, acc.Add(linkQoS).Add(cand.QoS), n.view[cand.Node], routeBW)
	}
	selected := n.kern.Select(&hop, core.SelectRiskThenCongestion, alpha, len(candidates))

	msg := message{kind: msgProbe, reqID: req.ID, rq: rq, node: req.Client, idx: idx, hop: prefix, alpha: alpha}
	sent := 0
	for _, id := range selected {
		host := n.c.catalog.Component(id).Node
		msg.chosen, msg.probe = id, 0
		if tr.Enabled() {
			msg.probe = tr.NextProbeID()
			tr.ProbeSpawned(req.ID, msg.probe, pos, host, acc.Delay)
		}
		if n.c.deliver(host, &msg, faults.KindProbe) {
			sent++
			n.c.ins.probesSent.Inc()
		} else {
			tr.ProbeDropped(req.ID, msg.probe, pos, host, obs.ReasonMailbox)
			n.c.ins.probesDropped.Inc()
		}
	}
	return sent
}

// predecessorRoutes resolves the virtual links from the already-chosen
// predecessors of position plan.Order[idx] to the candidate host: their
// aggregated QoS and their bottleneck bandwidth as the link ledger has it
// now. prefix is hop idx-1 of the probe.
func (n *node) predecessorRoutes(plan *component.Plan, idx int, prefix *hopRecord, host int) (qos.Vector, float64) {
	var linkQoS qos.Vector
	routeBW := math.Inf(1)
	for _, pred := range plan.Preds[plan.Order[idx]] {
		from := n.c.catalog.Component(prefix.back(idx - 1 - plan.Index[pred]).chosen).Node
		route, ok := n.c.mesh.RouteBetween(from, host)
		if !ok {
			return qos.Vector{Delay: math.Inf(1)}, 0
		}
		linkQoS = linkQoS.Add(route.QoS)
		routeBW = min(routeBW, n.c.links.RouteAvailable(route))
	}
	return linkQoS, routeBW
}

// onProbe performs per-hop probe processing for the candidate this node
// hosts (§3.3 step 2): precise conformance, transient allocation, and
// forwarding or return.
func (n *node) onProbe(msg *message) {
	req, plan := &msg.rq.req, &msg.rq.plan
	tr := n.c.tracer
	gpos := plan.Order[msg.idx]
	cand := n.c.catalog.Component(msg.chosen)

	linkQoS, routeBW := n.predecessorRoutes(plan, msg.idx, msg.hop, n.id)
	acc := msg.hop.accumulated().Add(linkQoS).Add(cand.QoS)

	// Precise conformance (Eqs. 6-8) against this node's own state; drop
	// unqualified probes immediately.
	if cand.Security < req.MinSecurity {
		tr.CandidatePruned(req.ID, msg.probe, 0, gpos, n.id, obs.ReasonSecurity)
		return
	}
	if acc.MaxRatio(req.QoSReq) > 1 {
		tr.CandidatePruned(req.ID, msg.probe, 0, gpos, n.id, obs.ReasonQoS)
		return
	}
	now := n.c.clock.Now() // one reading serves the check, the hold and what the probe carries
	if !n.availableFor(req.ID, now).Covers(req.ResReq[gpos]) {
		tr.CandidatePruned(req.ID, msg.probe, 0, gpos, n.id, obs.ReasonResources)
		return
	}
	if routeBW < req.BandwidthReq {
		tr.CandidatePruned(req.ID, msg.probe, 0, gpos, n.id, obs.ReasonBandwidth)
		return
	}
	if !n.holdFor(req.ID, gpos, req.ResReq[gpos], now) {
		tr.CandidatePruned(req.ID, msg.probe, 0, gpos, n.id, obs.ReasonHoldNode)
		return
	}
	tr.HoldAcquired(req.ID, msg.probe, gpos, n.id)

	// The probe carries the precise state it saw here (§3.3 step 3) from
	// the request's own perspective: holds of this request — this probe's
	// and its siblings' — are credited back, so the deputy subtracts the
	// request's stacked demand from it exactly once. It is read after the
	// hold, not reused from before it: the two differ in the last bit.
	hop := msg.rq.newHop()
	*hop = hopRecord{parent: msg.hop, chosen: msg.chosen, avail: n.availableFor(req.ID, now), acc: acc}

	if msg.idx == len(plan.Order)-1 {
		ret := message{kind: msgReturn, reqID: req.ID, hop: hop}
		if n.c.deliver(msg.node, &ret, faults.KindProbe) {
			tr.ProbeReturned(req.ID, msg.probe, n.id, acc.Delay)
			n.c.ins.probeReturns.Inc()
			n.c.ins.probeDelayMs.Observe(acc.Delay)
		} else {
			tr.ProbeDropped(req.ID, msg.probe, msg.idx, n.id, obs.ReasonMailbox)
			n.c.ins.probesDropped.Inc()
		}
		return
	}
	children := n.fanOut(msg.rq, msg.idx+1, hop, msg.alpha, msg.probe)
	tr.ProbeForwarded(req.ID, msg.probe, gpos, n.id, children)
}

// onDecide closes the probe collection window: select the phi-minimal
// qualified composition and start the commit phase (§3.3 steps 3-4).
func (n *node) onDecide(reqID int64) {
	p, ok := n.pending[reqID]
	if !ok || p.comp != nil {
		return
	}
	n.c.ins.collectMs.Observe(float64(n.c.clock.Since(p.composeStart)) / float64(time.Millisecond))

	best, bestPhi := n.decide(p)
	clear(p.returns) // the spare must not keep this request's records alive
	n.spare, p.returns = p.returns[:0], nil
	if best == nil {
		n.refuse(p, obs.ReasonNoComposition)
		return
	}
	n.c.tracer.Decided(reqID, n.id, "")

	// Commit phase: bandwidth first (atomic all-or-nothing), then the
	// per-node resource confirmations. The winner was scored, so its
	// prefix unrolls and its edges are routable.
	n.unroll(&p.plan, best)
	comps := slices.Clone(n.assign)
	nodes, _, _ := n.stack(&p.req, comps)
	_, links := n.kern.Shares()
	if err := n.c.links.CommitShares(state.Owner(reqID), nil, links); err != nil {
		n.rollback(p, reqID, obs.ReasonBandwidth)
		return
	}
	parts := make([]participant, len(nodes))
	for i, nd := range nodes {
		parts[i] = participant{node: nd.Node, amount: nd.Amount}
	}
	slices.SortFunc(parts, func(a, b participant) int { return a.node - b.node })
	p.comp = &Composition{Components: comps, Phi: bestPhi, QoS: best.acc, owner: reqID, parts: parts}
	p.commitStart = n.c.clock.Now()
	n.startCommit(reqID, p)
}

// startCommit sends the per-node confirmations of the decided
// composition and arms the commit-ack timeout.
func (n *node) startCommit(reqID int64, p *request) {
	for _, part := range p.comp.parts {
		if _, live := n.pending[reqID]; !live {
			// An inline nack already rolled the commit back; every
			// participant (including the unsent ones) has been released
			// and late commits are refused by tombstones. Stop here.
			return
		}
		if part.node == n.id {
			n.onCommit(reqID, part.amount, n.id) // local commit without a mailbox round trip
			continue
		}
		msg := message{kind: msgCommit, reqID: reqID, amount: part.amount, node: n.id}
		if !n.c.deliver(part.node, &msg, faults.KindProtocol) {
			// The peer's mailbox is full: record the nack inline (our own
			// mailbox may be full too).
			n.onCommitAck(reqID, part.node, false)
		}
	}
	if _, live := n.pending[reqID]; !live {
		return // resolved inline (single-node commit or rolled back)
	}
	n.c.clock.AfterFunc(n.c.cfg.CommitTimeout, func() {
		n.sendBlocking(message{kind: msgCommitTimeout, reqID: reqID})
	})
}

// decide picks, among the returns collected for p, the qualified
// composition with minimal phi (§3.3 step 3); nil when none qualifies.
// Once there is an incumbent, a return is bounded before it is stacked
// or scored, and skipped when its node terms alone lose to the incumbent:
// most returns do, and the decision is the one scoring them all makes.
func (n *node) decide(p *request) (best *hopRecord, bestPhi float64) {
	for _, ret := range p.returns {
		if ret.acc.MaxRatio(p.req.QoSReq) > 1 || !n.unroll(&p.plan, ret) {
			continue
		}
		if best != nil && core.BoundExceeds(core.PhiSum, &p.req, n.bound(p), bestPhi) {
			continue
		}
		if phi, ok := n.score(p); ok && (best == nil || phi < bestPhi) {
			best, bestPhi = ret, phi
		}
	}
	return best, bestPhi
}

// unroll writes a returned probe's hops into the node's scratch — the
// assignment by graph position, the carried availabilities and the hosts
// by hop — reporting false when the chain is not one record per position.
func (n *node) unroll(plan *component.Plan, last *hopRecord) bool {
	k := len(plan.Order)
	n.assign = slices.Grow(n.assign[:0], k)[:k]
	n.avails = slices.Grow(n.avails[:0], k)[:k]
	n.hosts = slices.Grow(n.hosts[:0], k)[:k]
	for i := k - 1; i >= 0; i, last = i-1, last.parent {
		if last == nil {
			return false
		}
		n.assign[plan.Order[i]] = last.chosen
		n.avails[i] = last.avail
		n.hosts[i] = n.c.catalog.Component(last.chosen).Node
	}
	return last == nil
}

// bound joins the Eq. 1 node terms of the return last unrolled into a
// lower bound of its phi (DESIGN.md §20). Each is taken against its host's
// latest snapshot, the availability score hands Score; Score charges it
// against the residual left after stacking, which can only be smaller,
// and adds link terms, which are never negative.
func (n *node) bound(p *request) float64 {
	bound := 0.0
	for i, gpos := range p.plan.Order {
		j := len(n.hosts) - 1
		for n.hosts[j] != n.hosts[i] {
			j--
		}
		bound = core.BoundJoin(core.PhiSum, bound, core.BoundNode(p.req.ResReq[gpos], n.avails[j]))
	}
	return bound
}

// stack resolves an assignment's virtual links and stacks the request's
// demand per node and per overlay link in the kernel's scratch, reporting
// false when some edge is unroutable. The routes stay in n.routes.
func (n *node) stack(req *component.Request, assign []component.ComponentID) ([]core.NodeDemand, []core.LinkDemand, bool) {
	routes, ok := n.c.routesOf(n.routes, req, assign)
	n.routes = routes
	if !ok {
		return nil, nil, false
	}
	nodes, links := n.kern.Stack(req, assign, routes)
	return nodes, links, true
}

// score checks the return last unrolled against the resource
// constraints (Eqs. 4-5) and scores it with Eq. 1 in the kernel. This
// engine supplies the precise state: per node the availability the probe
// carried back — the latest snapshot when the composition visits a host
// twice — and per overlay link what the link ledger has now.
func (n *node) score(p *request) (float64, bool) {
	req := &p.req
	nodes, links, ok := n.stack(req, n.assign)
	if !ok {
		return 0, false
	}
	for i := range n.hosts {
		for j := range nodes {
			if nodes[j].Node == n.hosts[i] {
				nodes[j].Avail = n.avails[i]
				break
			}
		}
	}
	for j := range links {
		links[j].Avail = n.c.links.LinkAvailable(links[j].Link)
	}
	return n.kern.Score(req, n.assign, n.routes, core.PhiSum)
}

// onCommit promotes the owner's transient holds into a committed
// allocation, or rejects if the resources are no longer there.
// Idempotent under duplicated delivery: a repeated commit re-acks
// without double-committing, and a commit arriving after the request
// was already released (rollback raced ahead) is refused.
func (n *node) onCommit(owner int64, amount qos.Resources, deputy int) {
	n.releaseHolds(owner)
	ok := false
	if _, dup := n.commits[owner]; dup {
		ok = true
	} else if now := n.c.clock.Now(); !n.tombstoned(owner, now) && n.available(now).Covers(amount) {
		n.commits[owner] = amount
		n.committed = n.committed.Add(amount)
		ok = true
		n.maybeBroadcast()
	}
	if deputy == n.id {
		n.onCommitAck(owner, n.id, ok)
		return
	}
	n.c.deliver(deputy, &message{kind: msgCommitAck, reqID: owner, node: n.id, ok: ok}, faults.KindProtocol)
}

// onCommitAck gathers commit outcomes; all-acked resolves the request,
// any nack rolls back. A duplicated ack counts once.
func (n *node) onCommitAck(reqID int64, from int, ok bool) {
	p, live := n.pending[reqID]
	if !live || p.comp == nil {
		return
	}
	if !ok {
		n.rollback(p, reqID, obs.ReasonCommitNack)
		return
	}
	for i := range p.comp.parts {
		if part := &p.comp.parts[i]; part.node == from && !part.acked {
			part.acked = true
			p.acked++
		}
	}
	if p.acked < len(p.comp.parts) {
		return
	}
	delete(n.pending, reqID)
	n.c.tracer.Committed(reqID, n.id)
	n.c.ins.commits.Inc()
	n.c.ins.commitMs.Observe(float64(n.c.clock.Since(p.commitStart)) / float64(time.Millisecond))
	n.c.sessions.add(sessionRow{owner: reqID, vals: [3]float64{p.comp.Phi, p.comp.QoS.MaxRatio(p.req.QoSReq), 1}})
	p.reply <- composeReply{comp: p.comp}
}

// rollback releases whatever the commit phase may have acquired and
// reports failure. It releases every participant the commit targeted —
// not only the acked ones — because a participant whose ack was lost
// (or whose commit is still in flight) has, or will, commit; releases
// are idempotent (the node's own ledger knows what the owner holds) and
// a release racing ahead of its commit leaves a tombstone that refuses
// the late commit. A request refused its bandwidth (p.comp still nil)
// reserved nothing and has nobody to release.
func (n *node) rollback(p *request, reqID int64, reason obs.Reason) {
	delete(n.pending, reqID)
	n.c.tracer.RolledBack(reqID, n.id, reason)
	n.c.ins.rollbacks.Inc()
	if p.comp != nil {
		n.c.ins.commitMs.Observe(float64(n.c.clock.Since(p.commitStart)) / float64(time.Millisecond))
		n.c.links.ReleaseSession(state.Owner(reqID))
		for _, part := range p.comp.parts {
			if part.node == n.id {
				n.onRelease(reqID)
				continue
			}
			n.c.sendRelease(part.node, reqID, 0)
		}
	}
	p.reply <- composeReply{err: ErrNoComposition}
}

// onRelease returns the owner's committed resources (session close or
// rollback). Only what this node's ledger recorded for the owner is
// released, which makes duplicates and speculative rollback releases
// no-ops. Every release leaves a TTL-bounded tombstone: request IDs are
// never reused, so any commit for this owner that is still in flight —
// a rollback racing ahead of its own commit, or a duplicated commit
// arriving after the session already closed — is stale and must be
// refused instead of leaking a committed allocation. The tombstone TTL
// (HoldTTL) bounds how long a stale commit can stay in flight, which
// injected delivery delays must stay under.
func (n *node) onRelease(owner int64) {
	n.releaseHolds(owner)
	n.tombs = append(n.tombs, tombstone{owner: owner, expires: n.c.clock.Now().Add(n.c.cfg.HoldTTL)})
	amount, ok := n.commits[owner]
	if !ok {
		return
	}
	delete(n.commits, owner)
	n.committed = n.committed.Sub(amount)
	n.maybeBroadcast()
}
