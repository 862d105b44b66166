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

// TestPartialHoldRollback models the extendProbe failure path: a
// candidate's node hold and some link holds succeed, a later link hold
// fails, and the caller rolls back exactly what it created — restoring
// the raw availability other candidates of the same request are checked
// against, without touching holds that pre-existed under other tags.
func TestPartialHoldRollback(t *testing.T) {
	l, _, mesh := newTestLedger(t)
	owner := Owner(7)
	capacity := mesh.Link(0).Capacity

	// An earlier position's hold that must survive the rollback.
	l.HoldNode(owner, 0, 0, qos.Resources{CPU: 10}, time.Minute)
	l.HoldLink(owner, 0, 0, capacity/2, time.Minute)

	// The failing candidate at position 2: node hold and link 0 hold
	// succeed, link 1 hold fails.
	okNode, createdNode := l.HoldNodeTrackedAt(ledgerClock, owner, 2, 0, qos.Resources{CPU: 20}, time.Minute)
	if !okNode || !createdNode {
		t.Fatal("candidate node hold rejected")
	}
	okLink, createdLink := l.HoldLinkTrackedAt(ledgerClock, owner, 2, 0, capacity/4, time.Minute)
	if !okLink || !createdLink {
		t.Fatal("candidate link hold rejected")
	}
	// Saturate link 1 so the candidate's next hold fails.
	l.HoldLink(99, 0, 1, mesh.Link(1).Capacity, time.Minute)
	if ok, _ := l.HoldLinkTrackedAt(ledgerClock, owner, 2, 1, 1, time.Minute); ok {
		t.Fatal("saturated link hold accepted")
	}

	// Roll back what the candidate created.
	l.ReleaseNodeHold(owner, 2, 0)
	l.ReleaseLinkHold(owner, 2, 0)

	if got := nodeAvailable(l, 0).CPU; got != 90 {
		t.Errorf("node raw availability after rollback = %v, want 90 (position 0 hold intact)", got)
	}
	if got := l.LinkAvailable(0); math.Abs(got-capacity/2) > 1e-9*capacity {
		t.Errorf("link raw availability after rollback = %v, want %v", got, capacity/2)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLockedLedgerConcurrentUse exercises the opt-in locked mode from
// many goroutines (meaningful under -race): concurrent holds, commits,
// releases and global-state reads must leave the ledger consistent.
func TestLockedLedgerConcurrentUse(t *testing.T) {
	l, _, mesh := newTestLedger(t)
	g, err := NewGlobal(l, mesh, DefaultGlobalConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	l.EnableLocking()
	g.EnableLocking()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			owner := Owner(w + 1)
			var rep Replica
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
				g.Refresh(&rep)
				_ = l.NodeAvailableForAt(ledgerClock, owner, node)
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
