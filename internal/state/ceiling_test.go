package state

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/overlay"
	"repro/internal/qos"
)

// The probe walk floors its incumbent cut with Replica.Ceiling (core,
// DESIGN.md §19), so "a node's committed availability is never above its
// ceiling" is a property other packages build on. The tests here pin it
// on the ledger and the global state themselves: a deterministic sequence
// that makes reports lag in both directions through every operation that
// changes committed state, and a fuzz target over operation sequences.

const (
	ceilingNodes  = 12
	ceilingOwners = 6
	ceilingTTL    = 10 * time.Second
)

// ceilingRig is a small ledger with unequal node capacities, its global
// state, and the clock both run on.
type ceilingRig struct {
	l   *Ledger
	g   *Global
	clk *clock
}

var (
	ceilingMeshOnce sync.Once
	ceilingMesh     *overlay.Mesh
)

func newCeilingRig(t testing.TB) *ceilingRig {
	t.Helper()
	ceilingMeshOnce.Do(func() { ceilingMesh = testMesh(t, ceilingNodes, 5) })
	if ceilingMesh == nil {
		t.Fatal("mesh construction failed in an earlier test")
	}
	clk := &clock{}
	l := NewLedger(ceilingMesh, qos.Resources{CPU: 100, Memory: 1000}, clk.Now)
	for n := 0; n < l.NumNodes(); n++ {
		// 0.70, 0.77, 0.84, ... of the default: products that are not round.
		if err := l.SetNodeCapacity(n, qos.Resources{CPU: 100, Memory: 1000}.Scale(0.7+0.07*float64(n))); err != nil {
			t.Fatal(err)
		}
	}
	g, err := NewGlobal(l, ceilingMesh, DefaultGlobalConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return &ceilingRig{l: l, g: g, clk: clk}
}

// check audits the ledger and then the ceiling property on every node,
// from a replica refreshed for the purpose. It returns how many node
// dimensions have committed availability above their report: where only
// the threshold term keeps the ceiling a bound.
func (r *ceilingRig) check(t testing.TB, after string) (lagging int) {
	t.Helper()
	if err := r.l.CheckInvariants(); err != nil {
		t.Fatalf("after %s: %v", after, err)
	}
	var rep Replica
	r.g.Refresh(&rep)
	threshold := r.g.cfg.UpdateThreshold
	for n := 0; n < r.l.NumNodes(); n++ {
		capacity := r.l.NodeCapacity(n)
		tol := capacity.Scale(1e-9) // the rounding of report + threshold·capacity against capacity − committed
		ceil := rep.Ceiling(n, capacity).Add(tol)
		truth := r.l.NodeCommittedAvailable(n)
		if !ceil.Covers(truth) {
			t.Fatalf("after %s: node %d committed availability %v above its ceiling %v (report %v)", after, n, truth, ceil, rep.Nodes[n])
		}
		// The rule behind the ceiling, both ways round: no report is further
		// than the threshold from the truth, so no committed change — up or
		// down — went by without nodeChanged.
		slack := capacity.Scale(threshold).Add(tol)
		if d := rep.Nodes[n].Sub(truth); math.Abs(d.CPU) > slack.CPU || math.Abs(d.Memory) > slack.Memory {
			t.Fatalf("after %s: node %d report %v is more than the threshold from the truth %v", after, n, rep.Nodes[n], truth)
		}
		if truth.CPU > rep.Nodes[n].CPU {
			lagging++
		}
		if truth.Memory > rep.Nodes[n].Memory {
			lagging++
		}
		for o := Owner(1); o <= ceilingOwners; o++ {
			if _, migrating := r.l.migrations[o]; migrating {
				continue // its credit is committed state of another owner: not bounded, and the walk does not assume it
			}
			if seen := r.l.NodeAvailableForAt(r.clk.now, o, n); !ceil.Covers(seen) {
				t.Fatalf("after %s: owner %d reads %v on node %d, above the ceiling %v", after, o, seen, n, ceil)
			}
		}
	}
	return lagging
}

// share is a fraction of the node's capacity, in 200ths: 19 is just
// inside the update threshold, 21 just past it.
func (r *ceilingRig) share(node int, n200 byte) qos.Resources {
	return r.l.NodeCapacity(node).Scale(float64(n200) / 200)
}

// TestCeilingBoundsCommittedAvailability walks reports into lagging both
// ways on purpose — a release just inside the threshold (the report stays
// below the truth) and one just past it (rewritten) —
// through ReleaseSession and through the old half of a MigrateSession,
// with holds of bystanders and of the reader in place. It fails if
// Ceiling drops its threshold term, or if a release or a migration stops
// notifying the global state.
func TestCeilingBoundsCommittedAvailability(t *testing.T) {
	r := newCeilingRig(t)
	l := r.l
	commit := func(owner Owner, node int, n200 byte) {
		t.Helper()
		if err := l.CommitSession(owner, map[int]qos.Resources{node: r.share(node, n200)}, map[int]float64{node % l.NumLinks(): 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Every node: a base of 50 %, then 9.5 % (inside the threshold of the
	// report the base wrote), then 10.5 % (outside: report rewritten low).
	for n := 0; n < l.NumNodes(); n++ {
		commit(Owner(100+n), n, 100)
		commit(Owner(200+n), n, 19)
		commit(Owner(300+n), n, 21)
		l.HoldNode(1, 0, n, r.share(n, 10), ceilingTTL)
		l.HoldNode(2, 0, n, r.share(n, 6), ceilingTTL)
	}
	if lag := r.check(t, "the fill"); lag != 0 {
		t.Fatalf("%d reports below the truth after commits only", lag)
	}
	// Release the 9.5 % on the even nodes: the truth rises by less than the
	// threshold, the report stays.
	for n := 0; n < l.NumNodes(); n += 2 {
		l.ReleaseSession(Owner(200 + n))
	}
	if lag := r.check(t, "releases inside the threshold"); lag != l.NumNodes()/2*2 {
		t.Fatalf("%d node dimensions lag their report, want both on each of %d nodes: the threshold term is not exercised", lag, l.NumNodes()/2)
	}
	// Release the 10.5 % on the odd nodes: past the threshold, rewritten.
	for n := 1; n < l.NumNodes(); n += 2 {
		l.ReleaseSession(Owner(300 + n))
	}
	if lag := r.check(t, "releases outside the threshold"); lag != l.NumNodes()/2*2 {
		t.Fatalf("%d node dimensions lag after releases the threshold rule rewrites, want %d", lag, l.NumNodes()/2*2)
	}
	// Migrate node 0's base session to node 1: node 0 gains half its
	// capacity in one flip and node 1 loses as much of its own as fits.
	if err := l.BeginMigration(3, 100); err != nil {
		t.Fatal(err)
	}
	r.check(t, "BeginMigration")
	if err := l.MigrateSession(100, 3, []NodeShare{{ID: 1, Amount: r.share(1, 30)}}, nil); err != nil {
		t.Fatal(err)
	}
	r.check(t, "MigrateSession")
	// And a small one: node 2's 10.5 % moves to node 3, so node 2 rises by
	// just more than the threshold over a report that already lags by it.
	if err := l.BeginMigration(4, 302); err != nil {
		t.Fatal(err)
	}
	if err := l.MigrateSession(302, 4, []NodeShare{{ID: 3, Amount: r.share(3, 5)}}, nil); err != nil {
		t.Fatal(err)
	}
	r.check(t, "a migration past a lagging report")
	r.clk.now += 2 * ceilingTTL
	r.check(t, "hold expiry")
}

// applyCeilingOp decodes four bytes into one ledger operation and runs
// it. Operations the ledger refuses (a second commit, a migration of
// nothing) are part of the sequence space.
func (r *ceilingRig) applyCeilingOp(op [4]byte) string {
	l := r.l
	owner := Owner(1 + op[1]%ceilingOwners)
	node := int(op[2]) % l.NumNodes()
	link := int(op[2]) % l.NumLinks()
	amount := r.share(node, op[3]%128)
	other := (node + 1 + int(op[1]>>4)) % l.NumNodes()
	// other wraps onto node now and then: a session that lists a node
	// twice, which the ledger refuses.
	shares := []NodeShare{{ID: node, Amount: amount}, {ID: other, Amount: r.share(other, op[3]>>2)}}
	bw := l.LinkCapacity(link) * float64(op[3]%64) / 256
	links := []LinkShare{{ID: link, Amount: bw}}
	switch op[0] % 9 {
	case 0:
		l.HoldNode(owner, int(op[1]>>4)%3, node, amount, r.clk.now+ceilingTTL)
		return "HoldNode"
	case 1:
		l.HoldLink(owner, int(op[1]>>4)%3, link, bw, r.clk.now+ceilingTTL)
		return "HoldLink"
	case 2:
		l.ReleaseNodeHold(owner, int(op[1]>>4)%3, node)
		return "ReleaseNodeHold"
	case 3:
		l.ReleaseOwner(owner)
		return "ReleaseOwner"
	case 4:
		_ = l.CommitShares(owner, shares, links) // may not fit, may be committed already
		return "CommitShares"
	case 5:
		l.ReleaseSession(owner)
		return "ReleaseSession"
	case 6:
		_ = l.BeginMigration(owner, Owner(1+op[2]%ceilingOwners)) // of a session that may not exist
		return "BeginMigration"
	case 7:
		if op[3]%2 == 0 {
			// As core.AbortRecompose does: a probe's holds may overlap the
			// share of the session it was re-composing, which only the open
			// window credits.
			l.AbortMigration(owner)
			return "AbortMigration"
		}
		_ = l.MigrateSession(l.migrations[owner], owner, shares, links) // with no window open: refused
		return "MigrateSession"
	default:
		// Up to twice the hold timeout.
		r.clk.now += time.Duration(op[3]) * ceilingTTL / 128
		return "clock advance"
	}
}

// FuzzLedgerCeiling runs arbitrary operation sequences — holds, releases,
// commits, session releases, migration windows opened, closed and
// flipped, the clock moved past the hold timeout — and after every one
// audits the ledger and the ceiling property. The seeds are under
// testdata/fuzz: releases just inside and just outside the threshold,
// a migration flip, an abandoned window, a session closed under one.
func FuzzLedgerCeiling(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newCeilingRig(t)
		for len(data) >= 4 {
			what := r.applyCeilingOp([4]byte(data[:4]))
			data = data[4:]
			r.check(t, what)
		}
	})
}

// TestMinResSpecialValues pins minRes, which takes the builtin min per
// dimension, and the link side's min, the builtin on bandwidth, to the
// math.Min form on NaN, both zeros, both infinities and ordinary numbers,
// in either argument. The two differ on one pair: math.Min lets -Inf
// beat NaN, the builtin returns NaN. minRes bounds a capacity, which
// SetNodeCapacity keeps above zero, and both sides take the minimum of a
// committed share and held amounts, so -Inf never reaches either; the
// pair is pinned to the builtin's answer.
func TestMinResSpecialValues(t *testing.T) {
	same := func(a, b float64) bool {
		return math.IsNaN(a) && math.IsNaN(b) || math.Float64bits(a) == math.Float64bits(b)
	}
	want := func(a, b float64) float64 {
		if math.IsNaN(a) || math.IsNaN(b) {
			return math.NaN() // math.Min's answer too, except against -Inf
		}
		return math.Min(a, b)
	}
	values := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1), -1, 0.5}
	for _, a := range values {
		for _, b := range values {
			got := minRes(qos.Resources{CPU: a, Memory: b}, qos.Resources{CPU: b, Memory: a})
			if !same(got.CPU, want(a, b)) || !same(got.Memory, want(b, a)) {
				t.Errorf("minRes on (%v, %v) = %v, want (%v, %v)", a, b, got, want(a, b), want(b, a))
			}
			if got := (bwArith{}).min(a, b); !same(got, want(a, b)) {
				t.Errorf("bandwidth min on (%v, %v) = %v, want %v", a, b, got, want(a, b))
			}
		}
	}
}
