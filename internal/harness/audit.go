package harness

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/component"
	"repro/internal/dist"
	"repro/internal/qos"
	"repro/internal/runtime"
)

// eps absorbs float accumulation error in resource sums.
const eps = 1e-6

// Books is one engine's resource books at an audit point, the view the
// paper's hard constraints (Eqs. 4–5) are stated over: what every node
// and overlay link can carry, what committed sessions use of it, and
// which nodes the outage schedule has down.
type Books struct {
	NodeCap, NodeUsed []qos.Resources
	LinkCap, LinkUsed []float64
	// NodeWant and LinkWant are the live footprint the caller derived on
	// its own, per node and per link; nil skips the comparison. A
	// footprint of zeros is the pristine check.
	NodeWant []qos.Resources
	LinkWant []float64
	// Down marks the nodes the outage schedule has down; nil when no
	// node ever crashes.
	Down []bool
}

// Audit checks cur against the three rules every engine keeps, given
// prev, the books of the previous audit point (nil at the first):
//
//  1. every node's and link's use lies in [0, capacity];
//  2. where a footprint is given, use equals it;
//  3. a node down at both audit points gains no committed use. Its
//     ledger may be durable (dist keeps a crashed node's commits), so
//     the rule is "no new commit", not "nothing committed".
//
// All comparisons are within eps.
func Audit(prev, cur *Books) error {
	for n, capn := range cur.NodeCap {
		used := cur.NodeUsed[n]
		if !nonNegative(used) || !nonNegative(capn.Sub(used)) {
			return fmt.Errorf("node %d: use %v outside [0, capacity %v]", n, used, capn)
		}
		if cur.NodeWant != nil && !close2(used, cur.NodeWant[n]) {
			return fmt.Errorf("node %d: use %v, live footprint %v", n, used, cur.NodeWant[n])
		}
		if prev != nil && prev.Down != nil && cur.Down != nil && prev.Down[n] && cur.Down[n] &&
			!nonNegative(prev.NodeUsed[n].Sub(used)) {
			return fmt.Errorf("node %d: down since the last audit point, yet its committed use grew from %v to %v",
				n, prev.NodeUsed[n], used)
		}
	}
	for l, capl := range cur.LinkCap {
		used := cur.LinkUsed[l]
		if used < -eps || used > capl+eps {
			return fmt.Errorf("link %d: use %v outside [0, capacity %v]", l, used, capl)
		}
		if cur.LinkWant != nil && math.Abs(used-cur.LinkWant[l]) > eps {
			return fmt.Errorf("link %d: use %v, live footprint %v", l, used, cur.LinkWant[l])
		}
	}
	return nil
}

// runtimeBooks reads a runtime cluster's books, with an empty footprint
// for the caller to fill.
func runtimeBooks(c *runtime.Cluster) *Books {
	b := &Books{
		NodeCap:  make([]qos.Resources, c.NumNodes()),
		NodeUsed: make([]qos.Resources, c.NumNodes()),
		NodeWant: make([]qos.Resources, c.NumNodes()),
		LinkCap:  make([]float64, c.NumLinks()),
		LinkUsed: make([]float64, c.NumLinks()),
		LinkWant: make([]float64, c.NumLinks()),
	}
	for n := range b.NodeCap {
		b.NodeCap[n] = c.NodeCapacity(n)
		b.NodeUsed[n] = b.NodeCap[n].Sub(c.NodeResidual(n))
	}
	for l := range b.LinkCap {
		b.LinkCap[l] = c.Mesh().Link(l).Capacity
		b.LinkUsed[l] = b.LinkCap[l] - c.LinkResidual(l)
	}
	return b
}

// SessionOutcome is what the harness observed for one resolved request:
// its internal owner ID and, when admitted, the composition and the
// request it was composed for.
type SessionOutcome struct {
	Owner    int64
	Admitted bool
	Req      *component.Request
	Comp     *dist.Composition
	Released bool
}

// audit checks the dist cluster after a step or a clock advance: its
// books (Audit, down read from the crash schedule, not from the node,
// which learns of its crash only when it next steps) and what only dist
// keeps — holds and commits against their running totals, and room for
// both under capacity. Given the outcomes at quiescence, it passes the
// live sessions' footprint and checks each node's commits owner by
// owner: a live session committed at exactly its participants with
// exactly its demand, nothing else, and no deputy request pending. That
// catches a rollback releasing only a subset of participants.
func (s *Sim) audit(outcomes []SessionOutcome) error {
	c := s.Cluster
	b := &Books{NodeCap: make([]qos.Resources, c.NumNodes()), NodeUsed: make([]qos.Resources, c.NumNodes())}
	var expect []map[int64]qos.Resources // per node, live owner -> demand
	if outcomes != nil {
		expect = make([]map[int64]qos.Resources, c.NumNodes())
		b.NodeWant, b.LinkWant = make([]qos.Resources, c.NumNodes()), make([]float64, c.Mesh().NumLinks())
		for _, o := range outcomes {
			if !o.Admitted || o.Released {
				continue
			}
			nodes, links := c.SessionDemands(o.Req, o.Comp)
			for _, d := range nodes {
				if expect[d.Node] == nil {
					expect[d.Node] = make(map[int64]qos.Resources)
				}
				expect[d.Node][o.Owner] = d.Amount
				b.NodeWant[d.Node] = b.NodeWant[d.Node].Add(d.Amount)
			}
			for _, d := range links {
				b.LinkWant[d.Link] += d.BW
			}
		}
	}
	for id := range b.NodeCap {
		acc := c.NodeAccountingAt(id)
		b.NodeCap[id], b.NodeUsed[id] = acc.Capacity, acc.Committed
		if !nonNegative(acc.HeldTotal) || !nonNegative(acc.Capacity.Sub(acc.Committed).Sub(acc.HeldTotal)) {
			return fmt.Errorf("node %d: overcommitted: capacity=%v committed=%v held=%v", id, acc.Capacity, acc.Committed, acc.HeldTotal)
		}
		if !close2(acc.HeldTotal, acc.HoldSum) {
			return fmt.Errorf("node %d: hold bookkeeping drifted: running=%v sum-of-holds=%v", id, acc.HeldTotal, acc.HoldSum)
		}
		if sum := sumCommits(acc.Commits); !close2(acc.Committed, sum) {
			return fmt.Errorf("node %d: commit bookkeeping drifted: running=%v sum-of-commits=%v", id, acc.Committed, sum)
		}
		if expect == nil {
			continue
		}
		for owner, want := range expect[id] {
			if got, ok := acc.Commits[owner]; !ok || !close2(got, want) {
				return fmt.Errorf("node %d: live session %d committed %v here, demand is %v (half-committed composition?)", id, owner, got, want)
			}
		}
		for owner, got := range acc.Commits {
			if _, ok := expect[id][owner]; !ok {
				return fmt.Errorf("node %d: owner %d is no live session here but holds a committed allocation %v (leaked by a partial rollback?)", id, owner, got)
			}
		}
		if acc.Pending > 0 {
			return fmt.Errorf("node %d: %d deputy requests still pending at quiescence", id, acc.Pending)
		}
	}
	avail, capacity := c.LinkAvailability()
	for i := range avail {
		if avail[i] < -eps || avail[i] > capacity[i]+eps {
			return fmt.Errorf("link %d: available %v outside [0, capacity %v]", i, avail[i], capacity[i])
		}
	}
	b.LinkCap, b.LinkUsed = capacity, c.LinkCommitted()
	if s.outages != nil {
		b.Down = make([]bool, len(b.NodeCap))
		for id := range b.Down {
			b.Down[id] = s.outages.Down(id)
		}
	}
	prev := s.books
	s.books = b
	return Audit(prev, b)
}

// sumCommits adds a node's commits in owner order: float addition does
// not associate, so a sum in map order differs in its low bits from one
// call to the next.
func sumCommits(commits map[int64]qos.Resources) qos.Resources {
	owners := make([]int64, 0, len(commits))
	for owner := range commits {
		owners = append(owners, owner)
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
	var sum qos.Resources
	for _, owner := range owners {
		sum = sum.Add(commits[owner])
	}
	return sum
}

func nonNegative(r qos.Resources) bool {
	return r.CPU >= -eps && r.Memory >= -eps
}

func close2(a, b qos.Resources) bool {
	return math.Abs(a.CPU-b.CPU) <= eps && math.Abs(a.Memory-b.Memory) <= eps
}
