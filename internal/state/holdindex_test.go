package state

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/qos"
)

// checkHoldIndex asserts the index invariant: every id whose hold list
// is non-empty is listed, and ids and listed agree with each other, each
// id at most once. With swept set (right after an owner-wide release)
// the list is exact: nothing empty is left in it.
func checkHoldIndex(t *testing.T, l *Ledger, swept bool) {
	t.Helper()
	check := func(kind string, x *holdIndex, n int, holds func(id int) int) {
		listed := 0
		for id := 0; id < n; id++ {
			if holds(id) > 0 && !x.listed[id] {
				t.Fatalf("%s %d carries %d holds but is not listed", kind, id, holds(id))
			}
			if x.listed[id] {
				listed++
			}
		}
		if len(x.ids) != listed {
			t.Fatalf("%s index has %d entries, %d ids are marked listed", kind, len(x.ids), listed)
		}
		for _, id := range x.ids {
			if !x.listed[id] {
				t.Fatalf("%s %d is in the list but not marked listed", kind, id)
			}
			if swept && holds(id) == 0 {
				t.Fatalf("%s %d is still listed after a release sweep found it empty", kind, id)
			}
		}
	}
	check("node", &l.nodes.index, len(l.nodes.accts), func(id int) int { return len(l.nodes.accts[id].holds) })
	check("link", &l.links.index, len(l.links.accts), func(id int) int { return len(l.links.accts[id].holds) })
}

// TestReleaseOwnerEmptiesHoldIndex places holds on k nodes and links and
// releases them through every path that drops a hold — owner-wide
// release, single-hold release, commit, expiry — checking after each
// step that the index covers what is held, after each owner-wide release
// that it names exactly that, and at the end that it is empty and the
// conservation sums are exact: the amounts are integers, so nothing may
// be left in held, not even a rounding residue.
func TestReleaseOwnerEmptiesHoldIndex(t *testing.T) {
	for _, k := range []int{1, 3, 8, 20} {
		l, clk, _ := newTestLedger(t)
		rng := rand.New(rand.NewSource(int64(k)))
		nodes := rng.Perm(l.NumNodes())[:k]
		links := rng.Perm(l.NumLinks())[:k]
		amount := qos.Resources{CPU: 3, Memory: 7}

		// Owner 1: two tags on every chosen node/link. Owner 2 shares the
		// first half, so releasing owner 1 must keep those indexed.
		for _, owner := range []Owner{1, 2} {
			for i := range nodes {
				if owner == 2 && i >= (k+1)/2 {
					break
				}
				for tag := 0; tag < 2; tag++ {
					if !l.HoldNode(owner, tag, nodes[i], amount, time.Minute) || !l.HoldLink(owner, tag, links[i], 5, time.Minute) {
						t.Fatalf("k=%d: hold rejected on an idle ledger", k)
					}
				}
			}
		}
		checkHoldIndex(t, l, false)

		l.ReleaseOwner(1)
		checkHoldIndex(t, l, true)
		if got, want := len(l.nodes.index.ids), (k+1)/2; got != want {
			t.Fatalf("k=%d: %d nodes indexed after releasing owner 1, want owner 2's %d", k, got, want)
		}

		// Owner 2 goes by three other roads: a single-hold release, a
		// commit (which releases the owner's holds first), and expiry.
		l.ReleaseNodeHold(2, 0, nodes[0])
		l.ReleaseLinkHold(2, 0, links[0])
		checkHoldIndex(t, l, false)
		if !l.HoldNode(3, 0, nodes[0], amount, time.Second) {
			t.Fatal("short-lived hold rejected")
		}
		clk.now = 2 * time.Second
		if got := nodeAvailable(l, nodes[0]); got != l.NodeCapacity(nodes[0]).Sub(amount) {
			t.Fatalf("k=%d: after owner 3 expired node %d has %v available", k, nodes[0], got)
		}
		checkHoldIndex(t, l, false)
		if err := l.CommitSession(2, map[int]qos.Resources{nodes[0]: amount}, map[int]float64{links[0]: 5}); err != nil {
			t.Fatal(err)
		}
		checkHoldIndex(t, l, true)
		if n := len(l.nodes.index.ids) + len(l.links.index.ids); n != 0 {
			t.Fatalf("k=%d: %d entries left in the hold index after every owner released", k, n)
		}
		l.ReleaseSession(2)

		for id := range l.nodes.accts {
			if n := &l.nodes.accts[id]; n.held != (qos.Resources{}) || n.committed != (qos.Resources{}) {
				t.Fatalf("k=%d: node %d left held %v committed %v", k, id, n.held, n.committed)
			}
		}
		for id := range l.links.accts {
			if lk := &l.links.accts[id]; lk.held != 0 || lk.committed != 0 {
				t.Fatalf("k=%d: link %d left held %v committed %v", k, id, lk.held, lk.committed)
			}
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHoldIndexUnderStochasticOps drives the index through a random
// operation mix on a moving clock.
func TestHoldIndexUnderStochasticOps(t *testing.T) {
	l, clk, _ := newTestLedger(t)
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 4000; step++ {
		clk.now += time.Duration(rng.Intn(200)) * time.Millisecond
		owner := Owner(rng.Intn(6) + 1)
		node, link, tag := rng.Intn(l.NumNodes()), rng.Intn(l.NumLinks()), rng.Intn(3)
		ttl := clk.now + time.Duration(rng.Intn(3000))*time.Millisecond
		op := rng.Intn(7)
		switch op {
		case 0, 1:
			l.HoldNode(owner, tag, node, qos.Resources{CPU: float64(rng.Intn(40)), Memory: float64(rng.Intn(300))}, ttl)
		case 2, 3:
			l.HoldLink(owner, tag, link, float64(rng.Intn(200)), ttl)
		case 4:
			l.ReleaseNodeHold(owner, tag, node)
			l.ReleaseLinkHold(owner, tag, link)
		case 5:
			l.ReleaseOwner(owner)
		case 6:
			nodeAvailable(l, node) // purge on read
			l.LinkAvailable(link)
		}
		checkHoldIndex(t, l, op == 5)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAtVariantsUseTheCallersInstant pins the clock hand-off: the *At
// calls expire holds as of the instant they are given and never read the
// ledger's own clock, so one walk's reads and holds share one instant.
func TestAtVariantsUseTheCallersInstant(t *testing.T) {
	l, clk, _ := newTestLedger(t)
	reads := 0
	l.now = func() time.Duration { reads++; return clk.now }
	amount := qos.Resources{CPU: 60, Memory: 600}

	if ok, created := l.HoldNodeTrackedAt(0, 1, 0, 0, amount, 10*time.Second); !ok || !created {
		t.Fatal("first hold rejected")
	}
	if ok, _ := l.HoldLinkTrackedAt(0, 1, 0, 0, 5, 10*time.Second); !ok {
		t.Fatal("link hold rejected")
	}
	clk.now = 20 * time.Second // owner 1's holds are past their expiry on the ledger's clock

	// A walk that began at t=5s still sees the hold: it is refused, not
	// over-admitted, and owner 1's hold stays counted.
	if ok, _ := l.HoldNodeTrackedAt(5*time.Second, 2, 0, 0, amount, 15*time.Second); ok {
		t.Fatal("hold at a stale instant ignored a live (as of that instant) hold")
	}
	if got := l.NodeAvailableForAt(5*time.Second, 2, 0); got != l.NodeCapacity(0).Sub(amount) {
		t.Fatalf("view at t=5s = %v, want owner 1's hold still counted", got)
	}
	if got := l.LinkAvailableForAt(5*time.Second, 2, 0); got != l.LinkCapacity(0)-5 {
		t.Fatalf("link view at t=5s = %v", got)
	}
	// At an instant past the expiry the same calls purge and succeed.
	if got := l.NodeAvailableForAt(12*time.Second, 2, 0); got != l.NodeCapacity(0) {
		t.Fatalf("view at t=12s = %v, want the expired hold gone", got)
	}
	if ok, created := l.HoldNodeTrackedAt(12*time.Second, 2, 0, 0, amount, 22*time.Second); !ok || !created {
		t.Fatal("hold at t=12s rejected after the blocker expired")
	}
	if reads != 0 {
		t.Fatalf("the *At calls read the ledger clock %d times, want 0", reads)
	}
	// The clock-pulling calls read it only when a hold's expiry hangs on
	// the answer: not on an unheld node, once on a held one.
	if !l.HoldNode(3, 0, 5, amount, time.Minute) {
		t.Fatal("hold on an idle node rejected")
	}
	if reads != 0 {
		t.Fatalf("HoldNode on an unheld node read the clock %d times, want 0", reads)
	}
	nodeAvailable(l, 5)
	if reads != 1 {
		t.Fatalf("a read at the ledger's clock on a held node read it %d times, want 1", reads)
	}
	checkHoldIndex(t, l, false)
}
