package core

import (
	"math"

	"repro/internal/component"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/qos"
	"repro/internal/state"
)

// This file is the composition kernel: the decisions of the ACP protocol
// that do not depend on where state lives or how messages travel. Both
// engines — the centralized probe walk in this package and the
// message-passing one in internal/dist — make them here:
//
//   - per-hop candidate selection (§3.5): coarse-grain qualification
//     (Eqs. 6-8), ranking by the risk function D (Eq. 9) then the
//     congestion function W (Eq. 10), the M = ceil(alpha*k) cut, and the
//     attribution of every cut to a prune reason;
//   - stacking a request's own demand per node and per overlay link
//     (footnotes 4, 5 and 8);
//   - the fit check (Eqs. 4-5) and the congestion aggregation metric phi
//     (Eq. 1) with its PhiMode post-processing;
//   - the lower bound of phi a partial composition carries, so an engine
//     can drop a probe that cannot beat the best composition it has.
//
// The kernel is arithmetic over values: an engine resolves routes and
// reads state its own way — the coarse state to select with, the precise
// state to score against — and hands the numbers in. The kernel never
// calls back into an engine.

// Kernel holds the scratch buffers the decisions reuse, so they stay
// allocation-free in steady state. It is not safe for concurrent use:
// one per composer, one per dist node.
type Kernel struct {
	catalog *component.Catalog

	ranked     []rankedCand
	selected   []component.ComponentID
	nodes      []NodeDemand
	links      []LinkDemand
	nodeShares []state.NodeShare
	linkShares []state.LinkShare
	residuals  []qos.Resources
}

// NewKernel returns a kernel over the deployment catalog.
func NewKernel(catalog *component.Catalog) *Kernel {
	return &Kernel{catalog: catalog}
}

// rankedCand is one coarse-qualified candidate in per-hop selection.
type rankedCand struct {
	id   component.ComponentID
	node int
	risk float64
	cong float64
}

// Hop identifies one per-hop selection: the request, the graph position
// being filled, and the span of the probe being extended (0 at the
// deputy's first hop), to which selection prunes are attributed.
type Hop struct {
	Req    *component.Request
	Pos    int
	Parent int64
	Tracer *obs.Tracer
}

func (h *Hop) pruned(node int, reason obs.Reason) {
	h.Tracer.CandidatePruned(h.Req.ID, 0, h.Parent, h.Pos, node, reason)
}

// Consider applies the coarse-grain qualification (Eqs. 6-8) to one
// candidate and, if it qualifies, scores it for ranking. A selection is
// one Consider per discovered candidate, then Select. The engine
// supplies what it knows without visiting the candidate: acc, the QoS
// accumulated through the candidate (probe so far + virtual links from
// the assigned predecessors + the candidate itself); avail, the coarse
// view of the candidate's node; routeBW, the coarse bottleneck bandwidth
// over those virtual links (+Inf when there are none or all are
// co-located).
func (k *Kernel) Consider(h *Hop, cand component.Component, acc qos.Vector, avail qos.Resources, routeBW float64) {
	req := h.Req
	if cand.Security < req.MinSecurity {
		h.pruned(cand.Node, obs.ReasonSecurity)
		return
	}
	risk := acc.MaxRatio(req.QoSReq)
	if risk > 1 {
		h.pruned(cand.Node, obs.ReasonQoS)
		return
	}
	need := req.ResReq[h.Pos]
	if !avail.Covers(need) {
		h.pruned(cand.Node, obs.ReasonResources)
		return
	}
	if routeBW < req.BandwidthReq {
		h.pruned(cand.Node, obs.ReasonBandwidth)
		return
	}
	// Congestion function W (Eq. 10) on coarse residuals.
	cong := qos.CongestionTerm(need, avail.Sub(need)) +
		qos.BandwidthCongestionTerm(req.BandwidthReq, routeBW-req.BandwidthReq)
	k.ranked = append(k.ranked, rankedCand{id: cand.ID, node: cand.Node, risk: risk, cong: cong})
}

// Select ends a selection: it keeps the best M = ceil(alpha*numCandidates)
// of the candidates that qualified, ranked under the policy. numCandidates
// counts what discovery returned, qualified or not. The returned slice is
// scratch, valid until the next Select.
func (k *Kernel) Select(h *Hop, policy SelectionPolicy, alpha float64, numCandidates int) []component.ComponentID {
	qualified := k.ranked
	if m := probeWidth(alpha, numCandidates); len(qualified) > m {
		r := rankingOf(policy)
		r.topM(qualified, m)
		if h.Tracer.Enabled() {
			for _, cut := range qualified[m:] {
				h.pruned(cut.node, rankCutReason[r.byRisk(cut.risk, qualified[m-1].risk)])
			}
		}
		qualified = qualified[:m]
	}
	out := k.selected[:0]
	for i := range qualified {
		out = append(out, qualified[i].id)
	}
	k.selected = out
	k.ranked = k.ranked[:0]
	return out
}

// probeWidth is M = ceil(alpha*k), at least one (§3.4).
func probeWidth(alpha float64, k int) int {
	m := int(math.Ceil(alpha * float64(k)))
	if m < 1 {
		m = 1
	}
	return m
}

// riskBand is how far apart two risk values must be, relative to the
// larger, to count as different (§3.5).
const riskBand = 0.05

// ranking is a selection policy as two masks, so that ranking needs no
// branch: the paper's policy compares risks when they differ by more than
// the band, else congestions; the other two always risks or congestions.
type ranking struct{ riskOnly, congOnly uint8 }

func rankingOf(policy SelectionPolicy) ranking {
	return ranking{bit(policy == SelectRiskOnly), bit(policy == SelectCongestionOnly)}
}

// rankCutReason attributes a ranking cut, by byRisk against the last
// admitted candidate, to the congestion function W or the risk function D.
var rankCutReason = [2]obs.Reason{obs.ReasonCongestionRank, obs.ReasonRiskRank}

// byRisk is 1 when risks ra and rb are compared, 0 when congestions are.
// For ra >= rb the band test |ra-rb| > riskBand*max(ra, rb) is ra-rb >
// riskBand*ra, and rb-ra > riskBand*rb can hold only for rb < 0, where the
// first holds too (unless ra = +Inf, where neither does): the OR of the
// one-sided tests is exact for every pair of floats and has no branch.
func (r ranking) byRisk(ra, rb float64) uint8 {
	return (bit(ra-rb > riskBand*ra) | bit(rb-ra > riskBand*rb) | r.riskOnly) &^ r.congOnly
}

// before is 1 when a ranks before b; it is small enough to inline.
func (r ranking) before(a, b rankedCand) uint8 {
	cong := bit(a.cong < b.cong)
	return cong ^ r.byRisk(a.risk, b.risk)&(bit(a.risk < b.risk)^cong)
}

// bit is 1 for true and 0 for false, a flag read rather than a branch.
func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// topM leaves in q[:m], in order, the first m entries of a stable insertion
// sort of q (the band makes the order non-transitive, so the sort is part
// of the decision) and the rest, the tail, unordered in q[m:]. An entry
// moves only while inserted, past entries it ranks before, so it enters
// the head exactly when it ranks before the head's last and every entry
// then in the tail: a conjunction, taken over the tail without a branch.
func (r ranking) topM(q []rankedCand, m int) {
	for i := 1; i < len(q); i++ {
		x, h := q[i], min(i, m)
		j := h
		if i > m {
			if r.before(x, q[m-1]) == 0 {
				continue
			}
			all := uint8(1)
			for _, t := range q[m:i] {
				all &= r.before(x, t)
			}
			if all == 0 {
				continue
			}
			j--
		}
		for j > 0 && r.before(x, q[j-1]) != 0 {
			j--
		}
		if j < h {
			q[i] = q[h-1]
			copy(q[j+1:h], q[j:h-1])
			q[j] = x
		}
	}
}

// NodeDemand is a request's stacked demand on one overlay node. Avail is
// the precise availability the demand is checked and scored against: the
// engine fills it in between Stack and Score.
type NodeDemand struct {
	Node   int
	Amount qos.Resources
	Avail  qos.Resources
}

// LinkDemand is NodeDemand for one overlay link's bandwidth.
type LinkDemand struct {
	Link  int
	BW    float64
	Avail float64
}

// Stack folds a composition into per-node resource and per-overlay-link
// bandwidth demands. Components of the same request sharing a node stack
// their requirements (footnote 5); virtual links sharing an overlay link
// stack their bandwidth; co-located virtual links consume nothing
// (footnote 4). routes holds the virtual link per graph edge. The slices
// are small and dense — a composition touches a handful of nodes and
// links, where a linear scan beats a map — and entries appear in
// first-seen order, which keeps every downstream float summation
// deterministic. They are scratch, valid until the next Stack.
func (k *Kernel) Stack(req *component.Request, comps []component.ComponentID, routes []overlay.Route) ([]NodeDemand, []LinkDemand) {
	nodes := k.nodes[:0]
	for pos, id := range comps {
		node := k.catalog.Component(id).Node
		found := false
		for i := range nodes {
			if nodes[i].Node == node {
				nodes[i].Amount = nodes[i].Amount.Add(req.ResReq[pos])
				found = true
				break
			}
		}
		if !found {
			nodes = append(nodes, NodeDemand{Node: node, Amount: req.ResReq[pos]})
		}
	}
	links := k.links[:0]
	for _, route := range routes {
		if route.CoLocated {
			continue
		}
		for _, link := range route.Links {
			found := false
			for i := range links {
				if links[i].Link == link {
					links[i].BW += req.BandwidthReq
					found = true
					break
				}
			}
			if !found {
				links = append(links, LinkDemand{Link: link, BW: req.BandwidthReq})
			}
		}
	}
	k.nodes, k.links = nodes, links
	return nodes, links
}

// Shares renders the demand last stacked in the dense form the ledger
// commits, entries in Stack's order. The slices are scratch, valid until
// the next Shares.
func (k *Kernel) Shares() ([]state.NodeShare, []state.LinkShare) {
	nodes, links := k.nodeShares[:0], k.linkShares[:0]
	for _, d := range k.nodes {
		nodes = append(nodes, state.NodeShare{ID: d.Node, Amount: d.Amount})
	}
	for _, d := range k.links {
		links = append(links, state.LinkShare{ID: d.Link, Amount: d.BW})
	}
	k.nodeShares, k.linkShares = nodes, links
	return nodes, links
}

// Score checks the composition last stacked against the availabilities
// the engine filled in — every residual must stay non-negative (Eqs.
// 4-5) — and computes the congestion aggregation metric (Eq. 1): each
// component contributes sum_k r_k/(rr_k + r_k) with rr the node's
// residual after ALL of this request's placements there (footnote 5),
// and each virtual link contributes b/(rb + b) with rb the bottleneck
// residual bandwidth after this request's reservations (0 for co-located
// links, footnote 8). comps and routes are the ones Stack was given.
//
// Under PhiSum the sum accumulates in the exact order above — the golden
// parity files pin that float arithmetic bit for bit. The fairness
// variants only post-process: PhiWeighted scales the sum by the request's
// phi weight, PhiBottleneck returns the single worst term tracked
// alongside the sum.
func (k *Kernel) Score(req *component.Request, comps []component.ComponentID, routes []overlay.Route, mode PhiMode) (float64, bool) {
	nodes, links := k.nodes, k.links
	for i := range nodes {
		if !nodes[i].Avail.Covers(nodes[i].Amount) {
			return 0, false
		}
	}
	for i := range links {
		if links[i].Avail < links[i].BW {
			return 0, false
		}
	}
	residuals := k.residuals[:0]
	for i := range nodes {
		residuals = append(residuals, nodes[i].Avail.Sub(nodes[i].Amount))
	}
	k.residuals = residuals
	total, worst := 0.0, 0.0
	for pos, id := range comps {
		node := k.catalog.Component(id).Node
		var residual qos.Resources
		for i := range nodes {
			if nodes[i].Node == node {
				residual = residuals[i]
				break
			}
		}
		term := qos.CongestionTerm(req.ResReq[pos], residual)
		total += term
		worst = max(worst, term)
	}
	for _, route := range routes {
		residual := math.Inf(1)
		if !route.CoLocated {
			for _, link := range route.Links {
				for i := range links {
					if links[i].Link == link {
						residual = min(residual, links[i].Avail-links[i].BW)
						break
					}
				}
			}
		}
		term := qos.BandwidthCongestionTerm(req.BandwidthReq, residual)
		total += term
		worst = max(worst, term)
	}
	switch mode {
	case PhiWeighted:
		return total * req.PhiWeight(), true
	case PhiBottleneck:
		return worst, true
	default:
		return total, true
	}
}

// The bound arithmetic. Eq. 1 is a sum (or, under PhiBottleneck, a max)
// of non-negative terms, and Score charges every term against a residual
// that footnote-5/8 stacking can only shrink. The same term taken without
// stacking is therefore a lower bound of what Score will charge, and the
// terms of the positions a probe has assigned, joined with a floor for
// those it has not, bound the phi of every composition the probe can
// still complete. IEEE add, subtract and divide are monotone, so term by
// term the inequality holds in floats too; only the order of summation
// differs from Score's, which boundMargin absorbs.

// boundMargin is the relative slack of BoundExceeds: many orders above
// the rounding of a dozen-term sum, many below any phi difference that
// decides a composition.
const boundMargin = 1e-9

// BoundNode is the Eq. 1 term of one component needing need on a node
// that has avail: against the availability a probe read at the node it is
// a lower bound of Score's term, against the node's capacity a floor for
// a component not placed yet.
func BoundNode(need, avail qos.Resources) float64 {
	return qos.CongestionTerm(need, avail.Sub(need))
}

// BoundLink is BoundNode for a virtual link with bottleneck bandwidth
// avail (+Inf, and a zero term, when co-located).
func BoundLink(bw, avail float64) float64 {
	return qos.BandwidthCongestionTerm(bw, avail-bw)
}

// BoundJoin folds one more term, or a floor, into a lower bound.
func BoundJoin(mode PhiMode, bound, term float64) float64 {
	if mode == PhiBottleneck {
		return max(bound, term)
	}
	return bound + term
}

// BoundExceeds reports whether a composition whose terms join to at least
// bound cannot score below incumbent, a phi Score returned under mode.
func BoundExceeds(mode PhiMode, req *component.Request, bound, incumbent float64) bool {
	if mode == PhiWeighted {
		bound *= req.PhiWeight()
	}
	return bound > incumbent*(1+boundMargin)
}
