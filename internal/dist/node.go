package dist

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/qos"
	"repro/internal/state"
)

// message is the sum type flowing through node mailboxes.
type message interface{}

// composeMsg asks a node to act as deputy for a request (§3.3 step 1).
// alpha is the probing ratio for this attempt; retries widen it (§3.6).
type composeMsg struct {
	req   *component.Request
	reply chan composeReply
	alpha float64
}

type composeReply struct {
	comp *Composition
	err  error
}

// probeMsg is one probe hop: the receiving node hosts the candidate
// chosen for position order[idx] and performs per-hop processing
// (§3.3 step 2).
type probeMsg struct {
	req    *component.Request
	probe  int64 // tracer span ID; 0 when tracing is disabled
	deputy int
	idx    int // index into the topological order
	chosen component.ComponentID
	assign []component.ComponentID // positions order[0..idx-1] filled
	acc    qos.Vector
	avails []qos.Resources // availability observed at each assigned node
	alpha  float64         // probing ratio of this attempt
}

// returnMsg carries a complete probed composition back to the deputy
// (§3.3 step 3).
type returnMsg struct {
	reqID  int64
	assign []component.ComponentID
	acc    qos.Vector
	avails []qos.Resources
}

// decideMsg fires when the deputy's probe collection window closes.
type decideMsg struct{ reqID int64 }

// commitMsg makes a transient allocation permanent (§3.3 step 4).
type commitMsg struct {
	owner  int64
	amount qos.Resources
	deputy int
	reqID  int64
}

// commitAckMsg reports a node's commit outcome to the deputy.
type commitAckMsg struct {
	reqID int64
	node  int
	ok    bool
}

// commitTimeoutMsg fires when commit acks are overdue.
type commitTimeoutMsg struct{ reqID int64 }

// releaseMsg frees the owner's committed allocation (session close or
// rollback). The node knows the committed amount from its own ledger,
// which makes release idempotent: a duplicate or speculative release
// (rollback toward a participant that never committed) is a no-op.
type releaseMsg struct {
	owner int64
}

// stateMsg is a coarse global-state update broadcast (§3.2).
type stateMsg struct {
	node  int
	avail qos.Resources
}

// inspectMsg asks a node for its precise availability (monitoring and
// test hook).
type inspectMsg struct{ reply chan qos.Resources }

type holdKey struct {
	owner int64
	pos   int
}

type hold struct {
	amount  qos.Resources
	expires time.Time
}

// pendingCompose is the deputy-side state of one in-flight request.
type pendingCompose struct {
	req     *component.Request
	order   []int
	reply   chan composeReply
	alpha   float64
	returns []returnMsg
	decided bool
	// composeStart is the compose arrival on the cluster clock; the
	// collect phase runs from here to the decision.
	composeStart time.Time

	// commit phase
	comp       *Composition
	needAcks   map[int]bool // node -> acked
	nodeDemand map[int]qos.Resources
	// commitStart is the decision instant; the commit phase runs from
	// here to the final ack or rollback.
	commitStart time.Time
}

// node is one stream processing host: a goroutine owning its end-system
// resource state, its coarse view of everyone else, and its share of the
// protocol.
type node struct {
	c       *Cluster
	id      int
	mailbox chan message
	quit    chan struct{}
	rng     *rand.Rand

	capacity     qos.Resources
	committed    qos.Resources
	heldTotal    qos.Resources
	holds        map[holdKey]hold
	commits      map[int64]qos.Resources // owner -> committed amount
	released     map[int64]time.Time     // release-before-commit tombstones
	view         []qos.Resources
	lastReported qos.Resources
	pending      map[int64]*pendingCompose
	down         bool // inside a scheduled outage

	kern   *core.Kernel    // selection, stacking and Eq. 1 scratch
	routes []overlay.Route // per-edge routes of the return being evaluated
}

func newNode(c *Cluster, id int, rng *rand.Rand) *node {
	n := &node{
		c:        c,
		id:       id,
		mailbox:  make(chan message, c.cfg.MailboxSize),
		quit:     make(chan struct{}),
		rng:      rng,
		holds:    make(map[holdKey]hold),
		commits:  make(map[int64]qos.Resources),
		released: make(map[int64]time.Time),
		view:     make([]qos.Resources, c.mesh.NumNodes()),
		pending:  make(map[int64]*pendingCompose),
		kern:     core.NewKernel(c.catalog),
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
func (n *node) send(m message) bool {
	n.c.inflight.Add(1) // before the enqueue: no visible-but-uncounted window
	select {
	case n.mailbox <- m:
		return true
	default:
		n.c.inflight.Add(-1)
		return false
	}
}

// sendBlocking enqueues a message, waiting for mailbox space; it gives
// up when the node shuts down. Used for the deputy's own timer events,
// which must not be lost to a momentarily full mailbox.
func (n *node) sendBlocking(m message) {
	n.c.inflight.Add(1)
	select {
	case n.mailbox <- m:
	case <-n.quit:
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
		case m := <-n.mailbox:
			n.checkCrash()
			n.dispatch(m)
			n.c.inflight.Add(-1) // dispatch done: every send it made is counted
		case <-sweepC:
			n.checkCrash()
			n.sweep()
		}
	}
}

// sweep is the periodic hold-expiry pass: transient allocations
// orphaned by lost probes (or lost commit traffic) free their resources
// at TTL instead of lingering until the next on-demand availability
// check. It also ages out release-before-commit tombstones.
func (n *node) sweep() {
	if expired := n.purgeHolds(); expired > 0 {
		n.c.tracer.HoldSwept(n.id, expired)
		n.c.ins.holdsSwept.Add(int64(expired))
	}
	if len(n.released) > 0 {
		now := n.c.clock.Now()
		for owner, exp := range n.released {
			if !exp.After(now) {
				delete(n.released, owner)
			}
		}
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
	n.holds = make(map[holdKey]hold)
	n.heldTotal = qos.Resources{}
	for _, reqID := range sortedPendingIDs(n.pending) {
		p := n.pending[reqID]
		if p.comp != nil {
			n.rollback(p, reqID, obs.ReasonNodeCrash)
			continue
		}
		delete(n.pending, reqID)
		n.c.tracer.Decided(reqID, n.id, obs.ReasonNodeDown)
		n.c.ins.noComposition.Inc()
		p.reply <- composeReply{err: ErrNoComposition}
	}
}

// sortedPendingIDs orders the deputy's in-flight request IDs so a crash
// fails them in a reproducible sequence.
func sortedPendingIDs(pending map[int64]*pendingCompose) []int64 {
	out := make([]int64, 0, len(pending))
	for id := range pending {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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

func (n *node) dispatch(m message) {
	if n.down {
		n.dispatchDown(m)
		return
	}
	switch msg := m.(type) {
	case composeMsg:
		n.onCompose(msg)
	case probeMsg:
		n.onProbe(msg)
	case returnMsg:
		n.onReturn(msg)
	case decideMsg:
		n.onDecide(msg.reqID)
	case commitMsg:
		n.onCommit(msg)
	case commitAckMsg:
		n.onCommitAck(msg)
	case commitTimeoutMsg:
		n.onCommitTimeout(msg.reqID)
	case releaseMsg:
		n.onRelease(msg)
	case stateMsg:
		n.view[msg.node] = msg.avail
	case inspectMsg:
		msg.reply <- n.available()
	}
}

// dispatchDown handles traffic arriving during an outage: the protocol
// engine is down — probes and commit traffic are lost, compose requests
// are refused so callers fail fast (and may retry) — while the durable
// local ledger still applies releases and the monitoring inspect hook
// still answers.
func (n *node) dispatchDown(m message) {
	switch msg := m.(type) {
	case composeMsg:
		msg.reply <- composeReply{err: ErrNoComposition}
	case probeMsg:
		n.c.tracer.ProbeDropped(msg.req.ID, msg.probe, msg.idx, n.id, obs.ReasonNodeDown)
		n.c.ins.probesDropped.Inc()
	case releaseMsg:
		n.onRelease(msg)
	case inspectMsg:
		msg.reply <- n.available()
	default:
		// return/commit/ack/timeout/state traffic dies with the engine.
	}
}

// available returns this node's precise local availability.
func (n *node) available() qos.Resources {
	n.purgeHolds()
	return n.capacity.Sub(n.committed).Sub(n.heldTotal)
}

// availableFor credits back the owner's own holds (the request must not
// block on its own reservations).
func (n *node) availableFor(owner int64) qos.Resources {
	avail := n.available()
	// Sorted iteration: float addition is not associative, so summing in
	// map order would make availability depend on iteration order.
	for _, key := range sortedHoldKeys(n.holds) {
		if key.owner == owner {
			avail = avail.Add(n.holds[key].amount)
		}
	}
	return avail
}

// purgeHolds drops expired transient allocations, returning how many
// were expired.
func (n *node) purgeHolds() int {
	if len(n.holds) == 0 {
		return 0
	}
	now := n.c.clock.Now()
	expired := 0
	for _, key := range sortedHoldKeys(n.holds) {
		h := n.holds[key]
		if !h.expires.After(now) {
			n.heldTotal = n.heldTotal.Sub(h.amount)
			delete(n.holds, key)
			n.c.tracer.HoldReleased(key.owner, n.id)
			expired++
		}
	}
	return expired
}

// sortedHoldKeys orders hold keys by (owner, pos) so expiry sweeps emit
// tracer events in a reproducible sequence.
func sortedHoldKeys(holds map[holdKey]hold) []holdKey {
	out := make([]holdKey, 0, len(holds))
	for key := range holds {
		out = append(out, key)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].owner != out[j].owner {
			return out[i].owner < out[j].owner
		}
		return out[i].pos < out[j].pos
	})
	return out
}

// holdFor places the transient allocation for (owner, pos); idempotent
// per key (footnote 7).
func (n *node) holdFor(owner int64, pos int, amount qos.Resources) bool {
	key := holdKey{owner: owner, pos: pos}
	if _, ok := n.holds[key]; ok {
		return true
	}
	if !n.available().Covers(amount) {
		return false
	}
	n.holds[key] = hold{amount: amount, expires: n.c.clock.Now().Add(n.c.cfg.HoldTTL)}
	n.heldTotal = n.heldTotal.Add(amount)
	return true
}

func (n *node) releaseHolds(owner int64) {
	released := 0
	// Sorted iteration keeps the running heldTotal bit-identical across
	// runs; subtracting floats in map order would not.
	for _, key := range sortedHoldKeys(n.holds) {
		if key.owner == owner {
			n.heldTotal = n.heldTotal.Sub(n.holds[key].amount)
			delete(n.holds, key)
			released++
		}
	}
	if released > 0 {
		n.c.tracer.HoldReleased(owner, n.id)
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
	msg := stateMsg{node: n.id, avail: avail}
	for _, peer := range n.c.nodes {
		if peer.id == n.id {
			peer.view[n.id] = avail
			continue
		}
		n.c.deliver(peer.id, msg, faults.KindState) // drops are tolerated: the view stays stale
	}
}

// onCompose initiates probing as the deputy node.
func (n *node) onCompose(msg composeMsg) {
	order, err := msg.req.Graph.TopoOrder()
	if err != nil {
		msg.reply <- composeReply{err: err}
		return
	}
	alpha := msg.alpha
	if alpha <= 0 {
		alpha = n.c.cfg.ProbingRatio
	}
	n.c.tracer.RequestReceived(msg.req.ID, n.id)
	p := &pendingCompose{req: msg.req, order: order, reply: msg.reply, alpha: alpha,
		composeStart: n.c.clock.Now()}
	n.pending[msg.req.ID] = p

	sent := n.fanOut(msg.req, order, 0,
		make([]component.ComponentID, msg.req.Graph.NumPositions()),
		qos.Vector{}, nil, alpha, 0)
	if sent == 0 {
		delete(n.pending, msg.req.ID)
		n.c.tracer.Decided(msg.req.ID, n.id, obs.ReasonNoComposition)
		n.c.ins.noComposition.Inc()
		msg.reply <- composeReply{err: ErrNoComposition}
		return
	}
	reqID := msg.req.ID
	n.c.clock.AfterFunc(n.c.cfg.CollectTimeout, func() {
		n.sendBlocking(decideMsg{reqID: reqID})
	})
}

// fanOut selects candidates for position order[idx] and sends one probe
// to each chosen candidate's host, returning how many were sent. The
// kernel qualifies and ranks (§3.5); this engine supplies the coarse
// state — the node's view of its peers and the link ledger. parent is the
// span of the probe being extended (0 at the deputy's first hop);
// selection prunes are attributed to it.
func (n *node) fanOut(req *component.Request, order []int, idx int,
	assign []component.ComponentID, acc qos.Vector, avails []qos.Resources,
	alpha float64, parent int64) int {

	pos := order[idx]
	tr := n.c.tracer
	candidates := n.c.catalog.Candidates(req.Graph.Functions[pos])
	hop := core.Hop{Req: req, Pos: pos, Parent: parent, Tracer: tr}
	for _, id := range candidates {
		if !n.c.catalog.Usable(id) {
			continue
		}
		cand := n.c.catalog.Component(id)
		linkQoS, routeBW := n.predecessorRoutes(req, pos, assign, cand.Node)
		n.kern.Consider(&hop, cand, acc.Add(linkQoS).Add(cand.QoS), n.view[cand.Node], routeBW)
	}
	selected := n.kern.Select(&hop, core.SelectRiskThenCongestion, alpha, len(candidates))

	sent := 0
	for _, id := range selected {
		host := n.c.catalog.Component(id).Node
		var pid int64
		if tr.Enabled() {
			pid = tr.NextProbeID()
			tr.ProbeSpawned(req.ID, pid, pos, host, acc.Delay)
		}
		msg := probeMsg{
			req:    req,
			probe:  pid,
			deputy: req.Client,
			idx:    idx,
			chosen: id,
			assign: append([]component.ComponentID(nil), assign...),
			acc:    acc,
			avails: append([]qos.Resources(nil), avails...),
			alpha:  alpha,
		}
		if n.c.deliver(host, msg, faults.KindProbe) {
			sent++
			n.c.ins.probesSent.Inc()
		} else {
			tr.ProbeDropped(req.ID, pid, pos, host, obs.ReasonMailbox)
			n.c.ins.probesDropped.Inc()
		}
	}
	return sent
}

// predecessorRoutes resolves the virtual links from the already-chosen
// predecessors of pos to the candidate host: their aggregated QoS and
// their bottleneck bandwidth as the link ledger has it now.
func (n *node) predecessorRoutes(req *component.Request, pos int,
	assign []component.ComponentID, host int) (qos.Vector, float64) {

	var linkQoS qos.Vector
	routeBW := math.Inf(1)
	for _, pred := range req.Graph.Predecessors(pos) {
		from := n.c.catalog.Component(assign[pred]).Node
		route, ok := n.c.mesh.RouteBetween(from, host)
		if !ok {
			return qos.Vector{Delay: math.Inf(1)}, 0
		}
		linkQoS = linkQoS.Add(route.QoS)
		routeBW = math.Min(routeBW, n.c.links.RouteAvailable(route))
	}
	return linkQoS, routeBW
}

// onProbe performs per-hop probe processing for the candidate this node
// hosts (§3.3 step 2): precise conformance, transient allocation, and
// forwarding or return.
func (n *node) onProbe(msg probeMsg) {
	req := msg.req
	pos := msg.idx
	tr := n.c.tracer
	order, err := req.Graph.TopoOrder()
	if err != nil {
		tr.ProbeDropped(req.ID, msg.probe, pos, n.id, obs.ReasonInternal)
		return
	}
	gpos := order[pos]
	cand := n.c.catalog.Component(msg.chosen)

	linkQoS, routeBW := n.predecessorRoutes(req, gpos, msg.assign, n.id)
	acc := msg.acc.Add(linkQoS).Add(cand.QoS)

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
	if !n.availableFor(req.ID).Covers(req.ResReq[gpos]) {
		tr.CandidatePruned(req.ID, msg.probe, 0, gpos, n.id, obs.ReasonResources)
		return
	}
	if routeBW < req.BandwidthReq {
		tr.CandidatePruned(req.ID, msg.probe, 0, gpos, n.id, obs.ReasonBandwidth)
		return
	}
	if !n.holdFor(req.ID, gpos, req.ResReq[gpos]) {
		tr.CandidatePruned(req.ID, msg.probe, 0, gpos, n.id, obs.ReasonHoldNode)
		return
	}
	tr.HoldAcquired(req.ID, msg.probe, gpos, n.id)

	assign := append([]component.ComponentID(nil), msg.assign...)
	assign[gpos] = msg.chosen
	// The probe carries the precise state it saw here (§3.3 step 3) from
	// the request's own perspective: holds of this request — this probe's
	// and its siblings' — are credited back, so the deputy subtracts the
	// request's stacked demand from it exactly once.
	avails := append(append([]qos.Resources(nil), msg.avails...), n.availableFor(req.ID))

	if msg.idx == len(order)-1 {
		if n.c.deliver(msg.deputy, returnMsg{
			reqID:  req.ID,
			assign: assign,
			acc:    acc,
			avails: avails,
		}, faults.KindProbe) {
			tr.ProbeReturned(req.ID, msg.probe, n.id, acc.Delay)
			n.c.ins.probeReturns.Inc()
			n.c.ins.probeDelayMs.Observe(acc.Delay)
		} else {
			tr.ProbeDropped(req.ID, msg.probe, pos, n.id, obs.ReasonMailbox)
			n.c.ins.probesDropped.Inc()
		}
		return
	}
	children := n.fanOut(req, order, msg.idx+1, assign, acc, avails, msg.alpha, msg.probe)
	tr.ProbeForwarded(req.ID, msg.probe, gpos, n.id, children)
}

// onReturn records a completed probe at the deputy.
func (n *node) onReturn(msg returnMsg) {
	p, ok := n.pending[msg.reqID]
	if !ok || p.decided {
		return
	}
	p.returns = append(p.returns, msg)
}

// onDecide closes the probe collection window: select the phi-minimal
// qualified composition and start the commit phase (§3.3 steps 3-4).
func (n *node) onDecide(reqID int64) {
	p, ok := n.pending[reqID]
	if !ok || p.decided {
		return
	}
	p.decided = true
	n.c.ins.collectMs.Observe(float64(n.c.clock.Since(p.composeStart)) / float64(time.Millisecond))

	var (
		best    *returnMsg
		bestPhi float64
	)
	for i := range p.returns {
		phi, ok := n.evaluateReturn(p, &p.returns[i])
		if ok && (best == nil || phi < bestPhi) {
			best, bestPhi = &p.returns[i], phi
		}
	}
	if best == nil {
		delete(n.pending, reqID)
		n.c.tracer.Decided(reqID, n.id, obs.ReasonNoComposition)
		n.c.ins.noComposition.Inc()
		p.reply <- composeReply{err: ErrNoComposition}
		return
	}
	n.c.tracer.Decided(reqID, n.id, "")

	// Commit phase: bandwidth first (atomic all-or-nothing), then the
	// per-node resource confirmations. The winner passed evaluateReturn,
	// so its edges are routable.
	nodes, links, _ := n.stack(p.req, best.assign)
	nodeDemand, linkDemand := core.DemandMaps(nodes, links)
	if err := n.c.links.CommitSession(state.Owner(reqID), nil, linkDemand); err != nil {
		delete(n.pending, reqID)
		n.c.tracer.RolledBack(reqID, n.id, obs.ReasonBandwidth)
		n.c.ins.rollbacks.Inc()
		p.reply <- composeReply{err: ErrNoComposition}
		return
	}
	p.comp = &Composition{Components: best.assign, Phi: bestPhi, QoS: best.acc, owner: reqID}
	p.commitStart = n.c.clock.Now()
	p.nodeDemand = nodeDemand
	p.needAcks = make(map[int]bool, len(nodeDemand))
	for nodeID := range nodeDemand {
		p.needAcks[nodeID] = false
	}
	n.startCommit(reqID, p)
}

// startCommit sends the per-node confirmations of the decided
// composition and arms the commit-ack timeout.
func (n *node) startCommit(reqID int64, p *pendingCompose) {
	for _, nodeID := range sortedNodeKeys(p.nodeDemand) {
		amount := p.nodeDemand[nodeID]
		if _, live := n.pending[reqID]; !live {
			// An inline nack already rolled the commit back; every
			// participant (including the unsent ones) has been released
			// and late commits are refused by tombstones. Stop here.
			return
		}
		msg := commitMsg{owner: reqID, amount: amount, deputy: n.id, reqID: reqID}
		if nodeID == n.id {
			n.onCommit(msg) // local commit without a mailbox round trip
			continue
		}
		if !n.c.deliver(nodeID, msg, faults.KindProtocol) {
			// The peer's mailbox is full: record the nack inline. The old
			// path bounced a commitAckMsg off our own mailbox, where it
			// could itself be lost to overflow and stall the request
			// until the commit timeout.
			n.onCommitAck(commitAckMsg{reqID: reqID, node: nodeID, ok: false})
		}
	}
	if _, live := n.pending[reqID]; !live {
		return // resolved inline (single-node commit or rolled back)
	}
	n.c.clock.AfterFunc(n.c.cfg.CommitTimeout, func() {
		n.sendBlocking(commitTimeoutMsg{reqID: reqID})
	})
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

// evaluateReturn checks a returned composition against the constraints
// (Eqs. 3-5) and scores it with Eq. 1 in the kernel. This engine supplies
// the precise state: per node the availability the probe carried back —
// the latest snapshot when the composition visits a host twice — and per
// overlay link what the link ledger has now.
func (n *node) evaluateReturn(p *pendingCompose, ret *returnMsg) (float64, bool) {
	req := p.req
	if ret.acc.MaxRatio(req.QoSReq) > 1 || len(ret.avails) != len(p.order) {
		return 0, false
	}
	nodes, links, ok := n.stack(req, ret.assign)
	if !ok {
		return 0, false
	}
	for i, gpos := range p.order {
		host := n.c.catalog.Component(ret.assign[gpos]).Node
		for j := range nodes {
			if nodes[j].Node == host {
				nodes[j].Avail = ret.avails[i]
				break
			}
		}
	}
	for j := range links {
		links[j].Avail = n.c.links.LinkAvailable(links[j].Link)
	}
	return n.kern.Score(req, ret.assign, n.routes, core.PhiSum)
}

// onCommit promotes the owner's transient holds into a committed
// allocation, or rejects if the resources are no longer there.
// Idempotent under duplicated delivery: a repeated commit re-acks
// without double-committing, and a commit arriving after the request
// was already released (rollback raced ahead) is refused.
func (n *node) onCommit(msg commitMsg) {
	n.releaseHolds(msg.owner)
	ack := commitAckMsg{reqID: msg.reqID, node: n.id}
	if _, dup := n.commits[msg.owner]; dup {
		ack.ok = true
	} else if _, dead := n.released[msg.owner]; dead {
		ack.ok = false
	} else if n.available().Covers(msg.amount) {
		n.commits[msg.owner] = msg.amount
		n.committed = n.committed.Add(msg.amount)
		ack.ok = true
		n.maybeBroadcast()
	}
	if msg.deputy == n.id {
		n.onCommitAck(ack)
		return
	}
	n.c.deliver(msg.deputy, ack, faults.KindProtocol)
}

// onCommitAck gathers commit outcomes; all-acked resolves the request,
// any nack rolls back.
func (n *node) onCommitAck(msg commitAckMsg) {
	p, ok := n.pending[msg.reqID]
	if !ok || p.comp == nil {
		return
	}
	if !msg.ok {
		n.rollback(p, msg.reqID, obs.ReasonCommitNack)
		return
	}
	p.needAcks[msg.node] = true
	for _, acked := range p.needAcks {
		if !acked {
			return
		}
	}
	delete(n.pending, msg.reqID)
	n.c.tracer.Committed(msg.reqID, n.id)
	n.c.ins.commits.Inc()
	n.c.ins.commitMs.Observe(float64(n.c.clock.Since(p.commitStart)) / float64(time.Millisecond))
	sess := strconv.FormatInt(msg.reqID, 10)
	n.c.ins.sessionPhi.With(sess).Set(p.comp.Phi)
	n.c.ins.sessionQoS.With(sess).Set(p.comp.QoS.MaxRatio(p.req.QoSReq))
	n.c.ins.sessionQoSReq.With(sess).Set(1)
	p.reply <- composeReply{comp: p.comp}
}

// onCommitTimeout treats overdue acks as failure.
func (n *node) onCommitTimeout(reqID int64) {
	p, ok := n.pending[reqID]
	if !ok || p.comp == nil {
		return
	}
	n.rollback(p, reqID, obs.ReasonCommitTimeout)
}

// rollback releases whatever the commit phase may have acquired and
// reports failure. It releases every participant the commit targeted —
// not only the acked ones — because a participant whose ack was lost
// (or whose commit is still in flight) has, or will, commit; releases
// are idempotent (the node's own ledger knows what the owner holds) and
// a release racing ahead of its commit leaves a tombstone that refuses
// the late commit.
func (n *node) rollback(p *pendingCompose, reqID int64, reason obs.Reason) {
	delete(n.pending, reqID)
	n.c.tracer.RolledBack(reqID, n.id, reason)
	n.c.ins.rollbacks.Inc()
	if p.comp != nil {
		n.c.ins.commitMs.Observe(float64(n.c.clock.Since(p.commitStart)) / float64(time.Millisecond))
	}
	n.c.links.ReleaseSession(state.Owner(reqID))
	for _, nodeID := range sortedNodeKeys(p.nodeDemand) {
		if nodeID == n.id {
			n.onRelease(releaseMsg{owner: reqID})
			continue
		}
		n.c.sendRelease(nodeID, reqID)
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
func (n *node) onRelease(msg releaseMsg) {
	n.releaseHolds(msg.owner)
	n.released[msg.owner] = n.c.clock.Now().Add(n.c.cfg.HoldTTL)
	amount, ok := n.commits[msg.owner]
	if !ok {
		return
	}
	delete(n.commits, msg.owner)
	n.committed = n.committed.Sub(amount)
	n.maybeBroadcast()
}
