package harness

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/component"
	"repro/internal/dist"
	"repro/internal/qos"
)

// eps absorbs float accumulation error in resource sums.
const eps = 1e-6

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

// Auditor checks the cluster's resource-safety invariants. CheckStep
// runs after every simulation step; the quiescent checks need the
// harness's knowledge of which requests resolved how.
type Auditor struct {
	c   *dist.Cluster
	cfg dist.Config
}

// NewAuditor wires an auditor to an unstarted cluster.
func NewAuditor(c *dist.Cluster, cfg dist.Config) *Auditor {
	return &Auditor{c: c, cfg: cfg}
}

// CheckStep verifies the invariants that must hold between any two
// protocol steps (Eqs. 4-5): residual node capacity never negative
// with transient holds and the committed ledger both charged,
// incremental hold/commit bookkeeping consistent with the per-entry
// state, and link availability within [0, capacity]. A violation here
// means some schedule over-allocated — the bug class transient
// allocation exists to prevent.
func (a *Auditor) CheckStep() error {
	for id := 0; id < a.c.NumNodes(); id++ {
		acc := a.c.NodeAccountingAt(id)
		if !nonNegative(acc.Committed) {
			return fmt.Errorf("node %d: committed ledger went negative: %v", id, acc.Committed)
		}
		if !nonNegative(acc.HeldTotal) {
			return fmt.Errorf("node %d: held total went negative: %v", id, acc.HeldTotal)
		}
		residual := acc.Capacity.Sub(acc.Committed).Sub(acc.HeldTotal)
		if !nonNegative(residual) {
			return fmt.Errorf("node %d: capacity overcommitted: capacity=%v committed=%v held=%v",
				id, acc.Capacity, acc.Committed, acc.HeldTotal)
		}
		if !close2(acc.HeldTotal, acc.HoldSum) {
			return fmt.Errorf("node %d: hold bookkeeping drifted: running=%v sum-of-holds=%v",
				id, acc.HeldTotal, acc.HoldSum)
		}
		commitSum := sumCommits(acc.Commits)
		if !close2(acc.Committed, commitSum) {
			return fmt.Errorf("node %d: commit bookkeeping drifted: running=%v sum-of-commits=%v",
				id, acc.Committed, commitSum)
		}
	}
	avail, capacity := a.c.LinkAvailability()
	for i := range avail {
		if avail[i] < -eps {
			return fmt.Errorf("link %d: bandwidth overcommitted: available=%v", i, avail[i])
		}
		if avail[i] > capacity[i]+eps {
			return fmt.Errorf("link %d: released above capacity: available=%v capacity=%v",
				i, avail[i], capacity[i])
		}
	}
	return nil
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

// CheckQuiescent verifies commit-ledger consistency once the protocol
// has quiesced: no composition is half-committed. Every live admitted
// session must be committed at exactly its participant set with
// exactly its per-node demand; failed or released requests must have
// no committed residue anywhere. This is the check that catches a
// rollback releasing only a subset of participants.
func (a *Auditor) CheckQuiescent(outcomes []SessionOutcome) error {
	type nothing struct{}
	expect := make(map[int]map[int64]qos.Resources, a.c.NumNodes())
	dead := make(map[int64]nothing)
	for _, o := range outcomes {
		if !o.Admitted || o.Released {
			dead[o.Owner] = nothing{}
			continue
		}
		nodes, _ := a.c.SessionDemands(o.Req, o.Comp)
		for _, d := range nodes {
			if expect[d.Node] == nil {
				expect[d.Node] = make(map[int64]qos.Resources)
			}
			expect[d.Node][o.Owner] = d.Amount
		}
	}
	for id := 0; id < a.c.NumNodes(); id++ {
		acc := a.c.NodeAccountingAt(id)
		for owner, want := range expect[id] {
			got, ok := acc.Commits[owner]
			if !ok {
				return fmt.Errorf("node %d: session %d admitted but not committed here (half-committed composition)", id, owner)
			}
			if !close2(got, want) {
				return fmt.Errorf("node %d: session %d committed %v, demand is %v", id, owner, got, want)
			}
		}
		for owner := range acc.Commits {
			if _, ok := dead[owner]; ok {
				return fmt.Errorf("node %d: request %d failed or was released but still holds a committed allocation %v (leaked by partial rollback?)",
					id, owner, acc.Commits[owner])
			}
			if expect[id] == nil || !contains(expect[id], owner) {
				return fmt.Errorf("node %d: committed allocation for unknown owner %d", id, owner)
			}
		}
	}
	return nil
}

// CheckIdle verifies the fully torn-down steady state: every node back
// at full capacity with no holds, commits, or in-flight deputy state,
// and every link back at full bandwidth. Run after all sessions are
// released and Settle has aged out transient state.
func (a *Auditor) CheckIdle() error {
	for id := 0; id < a.c.NumNodes(); id++ {
		acc := a.c.NodeAccountingAt(id)
		if !close2(acc.Committed, qos.Resources{}) || len(acc.Commits) > 0 {
			return fmt.Errorf("node %d: committed resources leaked after teardown: %v (%d sessions)",
				id, acc.Committed, len(acc.Commits))
		}
		if acc.Holds > 0 || !close2(acc.HeldTotal, qos.Resources{}) {
			return fmt.Errorf("node %d: %d transient holds leaked after settle (%v)", id, acc.Holds, acc.HeldTotal)
		}
		if acc.Pending > 0 {
			return fmt.Errorf("node %d: %d deputy requests still pending after quiescence", id, acc.Pending)
		}
	}
	avail, capacity := a.c.LinkAvailability()
	for i := range avail {
		if math.Abs(avail[i]-capacity[i]) > eps {
			return fmt.Errorf("link %d: bandwidth leaked after teardown: available=%v capacity=%v",
				i, avail[i], capacity[i])
		}
	}
	return nil
}

func contains(m map[int64]qos.Resources, owner int64) bool {
	_, ok := m[owner]
	return ok
}

func nonNegative(r qos.Resources) bool {
	return r.CPU >= -eps && r.Memory >= -eps
}

func close2(a, b qos.Resources) bool {
	return math.Abs(a.CPU-b.CPU) <= eps && math.Abs(a.Memory-b.Memory) <= eps
}
