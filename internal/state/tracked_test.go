package state

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/qos"
)

func TestTrackedHoldsReportCreation(t *testing.T) {
	l, _, mesh := newTestLedger(t)
	req := qos.Resources{CPU: 30, Memory: 100}

	ok, created := l.HoldNodeTrackedAt(ledgerClock, 1, 0, 0, req, time.Minute)
	if !ok || !created {
		t.Fatalf("first node hold = (%v, %v), want (true, true)", ok, created)
	}
	// Idempotent repeat: succeeds but creates nothing.
	ok, created = l.HoldNodeTrackedAt(ledgerClock, 1, 0, 0, req, time.Minute)
	if !ok || created {
		t.Fatalf("repeat node hold = (%v, %v), want (true, false)", ok, created)
	}
	// Failure creates nothing.
	ok, created = l.HoldNodeTrackedAt(ledgerClock, 2, 0, 0, qos.Resources{CPU: 1000}, time.Minute)
	if ok || created {
		t.Fatalf("oversized node hold = (%v, %v), want (false, false)", ok, created)
	}

	capacity := mesh.Link(0).Capacity
	ok, created = l.HoldLinkTrackedAt(ledgerClock, 1, 0, 0, capacity/2, time.Minute)
	if !ok || !created {
		t.Fatalf("first link hold = (%v, %v), want (true, true)", ok, created)
	}
	ok, created = l.HoldLinkTrackedAt(ledgerClock, 1, 0, 0, capacity/2, time.Minute)
	if !ok || created {
		t.Fatalf("repeat link hold = (%v, %v), want (true, false)", ok, created)
	}
	ok, created = l.HoldLinkTrackedAt(ledgerClock, 2, 0, 0, capacity, time.Minute)
	if ok || created {
		t.Fatalf("oversized link hold = (%v, %v), want (false, false)", ok, created)
	}
}

func TestReleaseNodeHoldIsTargeted(t *testing.T) {
	l, _, _ := newTestLedger(t)
	l.HoldNode(1, 0, 0, qos.Resources{CPU: 10}, time.Minute)
	l.HoldNode(1, 1, 0, qos.Resources{CPU: 20}, time.Minute)
	l.HoldNode(2, 0, 0, qos.Resources{CPU: 5}, time.Minute)

	l.ReleaseNodeHold(1, 1, 0)
	if got := nodeAvailable(l, 0).CPU; got != 85 {
		t.Errorf("CPU after targeted release = %v, want 85 (only owner 1 tag 1 released)", got)
	}
	// Releasing a hold that does not exist is a no-op.
	l.ReleaseNodeHold(1, 7, 0)
	l.ReleaseNodeHold(9, 0, 0)
	if got := nodeAvailable(l, 0).CPU; got != 85 {
		t.Errorf("CPU after no-op releases = %v, want 85", got)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseLinkHoldIsTargeted(t *testing.T) {
	l, _, mesh := newTestLedger(t)
	capacity := mesh.Link(0).Capacity
	l.HoldLink(1, 0, 0, capacity/4, time.Minute)
	l.HoldLink(1, 1, 0, capacity/4, time.Minute)
	l.HoldLink(2, 0, 0, capacity/4, time.Minute)

	l.ReleaseLinkHold(1, 0, 0)
	if got := l.LinkAvailable(0); math.Abs(got-capacity/2) > 1e-9*capacity {
		t.Errorf("link available after targeted release = %v, want %v", got, capacity/2)
	}
	l.ReleaseLinkHold(1, 0, 0) // already gone: no-op
	if got := l.LinkAvailable(0); math.Abs(got-capacity/2) > 1e-9*capacity {
		t.Errorf("link available after repeated release = %v, want %v", got, capacity/2)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPartialHoldRollback models a refused probe hop: HoldHopAt places
// the candidate's node hold and a link hold, a later link refuses, and
// the ledger rolls back exactly what the call created — restoring the
// raw availability other candidates of the same request are checked
// against, without touching holds that pre-existed under other tags or
// under the hop's own.
func TestPartialHoldRollback(t *testing.T) {
	l, _, mesh := newTestLedger(t)
	owner := Owner(7)
	capacity := mesh.Link(0).Capacity

	// An earlier position's holds, and one of the hop's own tag on link 2
	// (a sibling probe's), that must survive the rollback.
	l.HoldNode(owner, 0, 0, qos.Resources{CPU: 10}, time.Minute)
	l.HoldLink(owner, 0, 0, capacity/2, time.Minute)
	l.HoldLink(owner, 2, 2, 1, time.Minute)
	// Saturate link 1 so the hop's second link refuses.
	l.HoldLink(99, 0, 1, mesh.Link(1).Capacity, time.Minute)
	beforeLink2 := l.LinkAvailable(2)

	nodes := []NodeShare{{ID: 0, Amount: qos.Resources{CPU: 20}}}
	links := []LinkShare{{ID: 0, Amount: capacity / 4}, {ID: 2, Amount: 1}, {ID: 1, Amount: 1}}
	if got := l.HoldHopAt(ledgerClock, owner, 2, nodes, links, time.Minute); got != HopLinkRefused {
		t.Fatalf("hop over a saturated link: %v, want HopLinkRefused", got)
	}
	if got := nodeAvailable(l, 0).CPU; got != 90 {
		t.Errorf("node raw availability after rollback = %v, want 90 (position 0 hold intact)", got)
	}
	if got := l.LinkAvailable(0); math.Abs(got-capacity/2) > 1e-9*capacity {
		t.Errorf("link raw availability after rollback = %v, want %v", got, capacity/2)
	}
	if got := l.LinkAvailable(2); got != beforeLink2 {
		t.Errorf("link 2 after rollback = %v, want %v (the sibling's hold of the same tag intact)", got, beforeLink2)
	}

	// A node that cannot cover its share refuses before any link is tried.
	big := []NodeShare{{ID: 1, Amount: qos.Resources{CPU: 20}}, {ID: 0, Amount: qos.Resources{CPU: 95}}}
	if got := l.HoldHopAt(ledgerClock, owner, 3, big, links[:1], time.Minute); got != HopNodeRefused {
		t.Fatalf("hop onto an over-asked node: %v, want HopNodeRefused", got)
	}
	if got := nodeAvailable(l, 1).CPU; got != 100 {
		t.Errorf("node 1 after a refusal at node 0 = %v, want 100 (its hold rolled back)", got)
	}
	if got := l.LinkAvailable(0); math.Abs(got-capacity/2) > 1e-9*capacity {
		t.Errorf("link 0 after a refusal at a node = %v, want %v", got, capacity/2)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLockedLedgerConcurrentUse exercises the opt-in locked mode from
// many goroutines (meaningful under -race): concurrent holds, one by one
// and per hop, commits, releases, route reads and global-state reads must
// leave the ledger consistent.
func TestLockedLedgerConcurrentUse(t *testing.T) {
	l, _, mesh := newTestLedger(t)
	g, err := NewGlobal(l, mesh, DefaultGlobalConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	l.EnableLocking()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			owner := Owner(w + 1)
			var rep Replica
			view := make([]float64, l.NumLinks())
			for i := 0; i < 200; i++ {
				node := (w + i) % l.NumNodes()
				link := (w + i) % l.NumLinks()
				if ok, _ := l.HoldNodeTrackedAt(ledgerClock, owner, i, node, qos.Resources{CPU: 1, Memory: 1}, time.Minute); ok {
					if i%3 == 0 {
						l.ReleaseNodeHold(owner, i, node)
					}
				}
				if ok, _ := l.HoldLinkTrackedAt(ledgerClock, owner, i, link, 1, time.Minute); ok && i%3 == 1 {
					l.ReleaseLinkHold(owner, i, link)
				}
				l.HoldHopAt(ledgerClock, owner, 1000+i, []NodeShare{{ID: node, Amount: qos.Resources{CPU: 1, Memory: 1}}},
					[]LinkShare{{ID: link, Amount: 1}, {ID: (link + 1) % l.NumLinks(), Amount: 1}}, time.Minute)
				g.Refresh(&rep)
				_ = l.NodeAvailableForAt(ledgerClock, owner, node)
				l.LinksAvailableForAt(ledgerClock, owner, []int{link, (link + 1) % l.NumLinks()}, view)
				if i%50 == 49 {
					l.ReleaseOwner(owner)
				}
			}
			l.ReleaseOwner(owner)
		}(w)
	}
	go func() {
		for i := 0; i < 50; i++ {
			g.Aggregate()
			g.ForceRefresh()
		}
	}()
	wg.Wait()
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
