package dist

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/qos"
)

// TestReportedPhiIsEq1: the phi a composition reports is Eq. 1 over the
// state the request met, with the request's own demand stacked once per
// host and per overlay link (footnotes 5 and 8). Sequential requests on
// a stepped cluster, stale holds swept before each, so the precise state
// is exactly capacity minus committed; Eq. 1 is recomputed here from the
// node accounting and link availability taken just before the compose.
func TestReportedPhiIsEq1(t *testing.T) {
	s := newStepped(t)
	c := s.cluster
	rng := rand.New(rand.NewSource(7))
	admitted, mismatches, sharedHost := 0, 0, 0
	worst := 0.0
	for i := 0; i < 400; i++ {
		s.sweepExpired()
		nodeAvail := make([]qos.Resources, c.NumNodes())
		for id := range nodeAvail {
			acc := c.NodeAccountingAt(id)
			if acc.Holds != 0 {
				t.Fatalf("request %d: node %d still carries %d holds after the sweep", i, id, acc.Holds)
			}
			nodeAvail[id] = acc.Capacity.Sub(acc.Committed)
		}
		linkAvail, _ := c.LinkAvailability()

		req := steppedRequest(rng, c.cfg, 0.3)
		// Heavy streams: a virtual link then costs more than sharing a
		// host, so some compositions place two functions on one node.
		req.BandwidthReq *= 40
		comp := s.compose(req)
		if comp == nil {
			continue
		}
		admitted++

		nodeDemand := make(map[int]qos.Resources)
		for pos, id := range comp.Components {
			host := c.ComponentNode(id)
			nodeDemand[host] = nodeDemand[host].Add(req.ResReq[pos])
		}
		if len(nodeDemand) < len(comp.Components) {
			sharedHost++
		}
		routes := make([][]int, len(req.Graph.Edges)) // nil when co-located
		linkDemand := make(map[int]float64)
		for e, edge := range req.Graph.Edges {
			route, ok := c.Mesh().RouteBetween(c.ComponentNode(comp.Components[edge.From]), c.ComponentNode(comp.Components[edge.To]))
			if !ok {
				t.Fatalf("request %d: committed composition has an unroutable edge", i)
			}
			if route.CoLocated {
				continue
			}
			routes[e] = route.Links
			for _, link := range route.Links {
				linkDemand[link] += req.BandwidthReq
			}
		}
		want := 0.0
		for pos, id := range comp.Components {
			host := c.ComponentNode(id)
			want += qos.CongestionTerm(req.ResReq[pos], nodeAvail[host].Sub(nodeDemand[host]))
		}
		for _, links := range routes {
			residual := math.Inf(1)
			for _, link := range links {
				residual = math.Min(residual, linkAvail[link]-linkDemand[link])
			}
			want += qos.BandwidthCongestionTerm(req.BandwidthReq, residual)
		}
		if d := math.Abs(comp.Phi - want); d > 1e-9 {
			mismatches++
			worst = math.Max(worst, d/want)
		}
	}
	if admitted < 300 || sharedHost == 0 {
		t.Fatalf("weak run: %d admitted, %d with two functions on one host", admitted, sharedHost)
	}
	if mismatches > 0 {
		t.Errorf("reported phi differs from Eq. 1 in %d of %d admitted compositions (worst relative error %.3g)",
			mismatches, admitted, worst)
	}
}
