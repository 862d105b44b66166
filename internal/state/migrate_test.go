package state

import (
	"strings"
	"testing"
	"time"

	"repro/internal/qos"
)

// commitTestSession commits a session with the given per-node and
// per-link shares, failing the test on error.
func commitTestSession(t *testing.T, l *Ledger, owner Owner, nodes map[int]qos.Resources, links map[int]float64) {
	t.Helper()
	if err := l.CommitSession(owner, nodes, links); err != nil {
		t.Fatalf("commit session %d: %v", owner, err)
	}
}

// migrateMaps is MigrateSession over maps, each side's shares taken in id
// order, as the map-form CommitSession takes them.
func migrateMaps(l *Ledger, session, probe Owner, nodes map[int]qos.Resources, links map[int]float64) error {
	return l.MigrateSession(session, probe, sortedShares(nodes), sortedShares(links))
}

func TestBeginMigrationValidation(t *testing.T) {
	l, _, _ := newTestLedger(t)
	commitTestSession(t, l, 1, map[int]qos.Resources{0: {CPU: 10, Memory: 100}}, nil)
	commitTestSession(t, l, 2, map[int]qos.Resources{1: {CPU: 10, Memory: 100}}, nil)

	if err := l.BeginMigration(100, 99); err == nil {
		t.Fatal("migration of uncommitted session accepted")
	}
	if err := l.BeginMigration(2, 1); err == nil {
		t.Fatal("probe that owns a committed session accepted")
	}
	if err := l.BeginMigration(100, 1); err != nil {
		t.Fatalf("begin migration: %v", err)
	}
	if err := l.BeginMigration(100, 2); err == nil {
		t.Fatal("probe registered twice")
	}
	if err := l.BeginMigration(101, 1); err == nil {
		t.Fatal("session migrated by two probes")
	}
	l.EndMigration(100)
	if err := l.BeginMigration(101, 1); err != nil {
		t.Fatalf("begin after end: %v", err)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationCreditsSessionAllocation(t *testing.T) {
	l, _, _ := newTestLedger(t)
	// Node 0 is nearly full: session 1 owns 90 of 100 CPU.
	commitTestSession(t, l, 1, map[int]qos.Resources{0: {CPU: 90, Memory: 900}}, nil)
	free := l.NodeAvailableForAt(ledgerClock, 100, 0)

	if err := l.BeginMigration(100, 1); err != nil {
		t.Fatal(err)
	}
	// The probe's view credits the session's committed share back...
	if got := l.NodeAvailableForAt(ledgerClock, 100, 0); got != free.Add(qos.Resources{CPU: 90, Memory: 900}) {
		t.Fatalf("probe view = %v, want committed share credited onto %v", got, free)
	}
	// ...while every other owner still sees the precise residual.
	if got := l.NodeAvailableForAt(ledgerClock, 200, 0); got != free {
		t.Fatalf("bystander view = %v, want %v", got, free)
	}
	// A bystander competes only for the true residual.
	expiry := time.Hour
	if ok := l.HoldNode(200, 0, 0, qos.Resources{CPU: 10, Memory: 10}, expiry); !ok {
		t.Fatal("bystander hold within residual rejected")
	}
	// The probe can hold resources the raw residual could not cover.
	if ok := l.HoldNode(100, 0, 0, qos.Resources{CPU: 50, Memory: 500}, expiry); !ok {
		t.Fatal("hold within reuse credit rejected")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// But the credit is applied once: holds beyond credit + residual fail.
	if ok := l.HoldNode(100, 1, 0, qos.Resources{CPU: 55, Memory: 10}, expiry); ok {
		t.Fatal("hold beyond reuse credit + residual accepted")
	}
	// With the reused share double-booked, the true residual is gone.
	if ok := l.HoldNode(200, 1, 0, qos.Resources{CPU: 20, Memory: 10}, expiry); ok {
		t.Fatal("bystander hold into reused share accepted")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationLinkCredit(t *testing.T) {
	l, _, mesh := newTestLedger(t)
	link := 0
	cap0 := mesh.Link(link).Capacity
	commitTestSession(t, l, 1, nil, map[int]float64{link: cap0 * 0.9})
	if err := l.BeginMigration(100, 1); err != nil {
		t.Fatal(err)
	}
	if got, want := l.LinkAvailableForAt(ledgerClock, 100, link), cap0; got < want-1e-9 {
		t.Fatalf("probe link view = %v, want ~%v", got, want)
	}
	if ok := l.HoldLink(100, 0, link, cap0*0.8, time.Hour); !ok {
		t.Fatal("link hold within reuse credit rejected")
	}
	if ok := l.HoldLink(200, 0, link, cap0*0.2, time.Hour); ok {
		t.Fatal("bystander link hold into reused share accepted")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateSessionFlip(t *testing.T) {
	l, _, mesh := newTestLedger(t)
	bw0 := mesh.Link(0).Capacity * 0.5
	bw1 := mesh.Link(1).Capacity * 0.5
	oldNodes := map[int]qos.Resources{0: {CPU: 60, Memory: 600}, 1: {CPU: 30, Memory: 300}}
	oldLinks := map[int]float64{0: bw0}
	commitTestSession(t, l, 1, oldNodes, oldLinks)
	if err := l.BeginMigration(100, 1); err != nil {
		t.Fatal(err)
	}
	// New composition partially overlaps the old one (node 0 reused).
	newNodes := map[int]qos.Resources{0: {CPU: 60, Memory: 600}, 2: {CPU: 30, Memory: 300}}
	newLinks := map[int]float64{1: bw1}
	expiry := time.Hour
	for node, amount := range newNodes {
		if ok := l.HoldNode(100, node, node, amount, expiry); !ok {
			t.Fatalf("hold on node %d rejected", node)
		}
	}
	for link, bw := range newLinks {
		if ok := l.HoldLink(100, link, link, bw, expiry); !ok {
			t.Fatalf("hold on link %d rejected", link)
		}
	}
	// Mid-window: conservation holds with both the committed old
	// allocation and the overlapping holds live.
	if err := l.CheckInvariants(); err != nil {
		t.Fatalf("mid-migration: %v", err)
	}
	if got := l.ActiveSessions(); got != 1 {
		t.Fatalf("mid-migration sessions = %d", got)
	}

	if err := migrateMaps(l, 1, 100, newNodes, newLinks); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatalf("post-flip: %v", err)
	}
	// The session is now owned by the probe ID; the old owner is gone.
	if l.HasSession(1) {
		t.Fatal("old owner still committed")
	}
	if !l.HasSession(100) {
		t.Fatal("new owner not committed")
	}
	// Old-only resources freed, new-only committed, shared unchanged.
	if got := l.NodeCommittedAvailable(1); got != l.NodeCapacity(1) {
		t.Fatalf("node 1 not freed: %v", got)
	}
	want := l.NodeCapacity(2).Sub(qos.Resources{CPU: 30, Memory: 300})
	if got := l.NodeCommittedAvailable(2); got != want {
		t.Fatalf("node 2 committed available = %v, want %v", got, want)
	}
	want0 := l.NodeCapacity(0).Sub(qos.Resources{CPU: 60, Memory: 600})
	if got := l.NodeCommittedAvailable(0); got != want0 {
		t.Fatalf("node 0 committed available = %v, want %v", got, want0)
	}
	if got := l.LinkCommittedAvailable(0); got != l.LinkCapacity(0) {
		t.Fatalf("link 0 not freed: %v", got)
	}
	if got, want := l.LinkCommittedAvailable(1), l.LinkCapacity(1)-bw1; got != want {
		t.Fatalf("link 1 committed available = %v, want %v", got, want)
	}
	// No transient holds survive the flip.
	if got := nodeAvailable(l, 0); got != want0 {
		t.Fatalf("node 0 precise available = %v, want %v (holds released)", got, want0)
	}
	// Releasing the migrated session frees everything.
	l.ReleaseSession(100)
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := l.NodeCommittedAvailable(0); got != l.NodeCapacity(0) {
		t.Fatalf("node 0 not freed after release: %v", got)
	}
}

func TestMigrateSessionFailureKeepsWindow(t *testing.T) {
	l, _, _ := newTestLedger(t)
	commitTestSession(t, l, 1, map[int]qos.Resources{0: {CPU: 50, Memory: 500}}, nil)
	// Another session fills node 1 so the flip below cannot fit.
	commitTestSession(t, l, 2, map[int]qos.Resources{1: {CPU: 100, Memory: 1000}}, nil)
	if err := l.BeginMigration(100, 1); err != nil {
		t.Fatal(err)
	}
	err := migrateMaps(l, 1, 100, map[int]qos.Resources{1: {CPU: 50, Memory: 500}}, nil)
	if err == nil {
		t.Fatal("infeasible flip accepted")
	}
	if !strings.Contains(err.Error(), "node 1") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Shares are checked as a commit checks them: a repeated or
	// out-of-range id is refused, the first in input order named.
	small := qos.Resources{CPU: 1, Memory: 1}
	for _, tc := range []struct {
		shares []NodeShare
		want   string
	}{
		{[]NodeShare{{3, small}, {0, small}, {3, small}}, "node 3 listed twice"},
		{[]NodeShare{{0, small}, {l.NumNodes(), small}}, "out of range"},
	} {
		if err := l.MigrateSession(1, 100, tc.shares, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("flip of %v = %v, want an error naming %q", tc.shares, err, tc.want)
		}
	}
	// The window survives for a retry; the old session is untouched.
	if !l.HasSession(1) || l.migrations[100] != 1 {
		t.Fatal("source session or window lost on failed flip")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Mismatched (session, probe) pairs are rejected.
	if err := migrateMaps(l, 2, 100, nil, nil); err == nil {
		t.Fatal("mismatched migration pair accepted")
	}
	// Abort path: the window closes and the probe's holds go.
	l.AbortMigration(100)
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAbortMigrationRestoresLedger opens a window whose probe holds
// reuse the session's whole share, node and link, and aborts it: the
// ledger stays sound and every node and link is back where it stood
// before the window opened. Closing the window and releasing the holds
// as two operations leaves an instant in which the holds overlap a share
// nothing credits any more, and CheckInvariants reports over-allocation.
func TestAbortMigrationRestoresLedger(t *testing.T) {
	l, _, mesh := newTestLedger(t)
	share := qos.Resources{CPU: 90, Memory: 900}
	bw := mesh.Link(0).Capacity * 0.9
	commitTestSession(t, l, 1, map[int]qos.Resources{0: share}, map[int]float64{0: bw})
	nodes := make([]qos.Resources, l.NumNodes())
	for n := range nodes {
		nodes[n] = nodeAvailable(l, n)
	}
	links := make([]float64, l.NumLinks())
	for k := range links {
		links[k] = l.LinkAvailable(k)
	}

	if err := l.BeginMigration(100, 1); err != nil {
		t.Fatal(err)
	}
	if ok := l.HoldNode(100, 0, 0, share, time.Hour); !ok {
		t.Fatal("hold on the reused node share rejected")
	}
	if ok := l.HoldLink(100, 0, 0, bw, time.Hour); !ok {
		t.Fatal("hold on the reused link share rejected")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatalf("open window: %v", err)
	}

	l.AbortMigration(100)
	if err := l.CheckInvariants(); err != nil {
		t.Fatalf("after abort: %v", err)
	}
	for n, want := range nodes {
		if got := nodeAvailable(l, n); got != want {
			t.Fatalf("node %d has %v available after the abort, %v before the window", n, got, want)
		}
	}
	for k, want := range links {
		if got := l.LinkAvailable(k); got != want {
			t.Fatalf("link %d has %v available after the abort, %v before the window", k, got, want)
		}
	}
	if !l.HasSession(1) {
		t.Fatal("source session lost on abort")
	}
	if err := migrateMaps(l, 1, 100, map[int]qos.Resources{0: share}, nil); err == nil {
		t.Fatal("flip through an aborted window accepted")
	}
}

func TestCommitSessionRefusesMigratingOwner(t *testing.T) {
	l, _, _ := newTestLedger(t)
	commitTestSession(t, l, 1, map[int]qos.Resources{0: {CPU: 10, Memory: 100}}, nil)
	if err := l.BeginMigration(100, 1); err != nil {
		t.Fatal(err)
	}
	err := l.CommitSession(100, map[int]qos.Resources{1: {CPU: 10, Memory: 100}}, nil)
	if err == nil || !strings.Contains(err.Error(), "MigrateSession") {
		t.Fatalf("plain commit during migration window: err = %v", err)
	}
}

// TestCommitSessionCountsWindowOverlapOnce: a probe's holds that reuse
// its session's share are counted in both committed and held, so a
// bystander that held its share before the probe did must still be able
// to commit it — and nothing beyond the true room may commit. Both ends
// of the window stay sound: the flip, and the bystander's allocation.
func TestCommitSessionCountsWindowOverlapOnce(t *testing.T) {
	l, _, _ := newTestLedger(t)
	commitTestSession(t, l, 1, map[int]qos.Resources{0: {CPU: 30, Memory: 300}}, nil)
	if ok := l.HoldNode(200, 0, 0, qos.Resources{CPU: 30, Memory: 300}, time.Hour); !ok {
		t.Fatal("bystander hold rejected")
	}
	if err := l.BeginMigration(100, 1); err != nil {
		t.Fatal(err)
	}
	newShare := qos.Resources{CPU: 60, Memory: 600}
	if ok := l.HoldNode(100, 0, 0, newShare, time.Hour); !ok {
		t.Fatal("probe hold reusing the session's share rejected")
	}
	// 30 committed + 90 held on a node of 100, 30 of it counted twice.
	if err := l.CommitSession(200, map[int]qos.Resources{0: {CPU: 30, Memory: 300}}, nil); err != nil {
		t.Fatalf("bystander commit of its held share: %v", err)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := l.CommitSession(300, map[int]qos.Resources{0: {CPU: 20, Memory: 200}}, nil); err == nil {
		t.Fatal("commit beyond the true room accepted")
	}
	if err := migrateMaps(l, 1, 100, map[int]qos.Resources{0: newShare}, nil); err != nil {
		t.Fatalf("flip: %v", err)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := nodeAvailable(l, 0), l.NodeCapacity(0).Sub(qos.Resources{CPU: 90, Memory: 900}); got != want {
		t.Fatalf("node 0 has %v available after the flip, want %v", got, want)
	}
}

func TestReleaseSessionDropsMigrationWindow(t *testing.T) {
	l, _, _ := newTestLedger(t)
	commitTestSession(t, l, 1, map[int]qos.Resources{0: {CPU: 90, Memory: 900}}, nil)
	if err := l.BeginMigration(100, 1); err != nil {
		t.Fatal(err)
	}
	if ok := l.HoldNode(100, 0, 0, qos.Resources{CPU: 80, Memory: 800}, time.Hour); !ok {
		t.Fatal("hold within credit rejected")
	}
	// The session closes underneath the open window.
	l.ReleaseSession(1)
	if err := l.CheckInvariants(); err != nil {
		t.Fatalf("after release under window: %v", err)
	}
	// Credit is gone: the probe now competes for the true residual.
	if got, want := l.NodeAvailableForAt(ledgerClock, 100, 0), l.NodeCapacity(0); got != want {
		t.Fatalf("probe view = %v, want %v (own hold credited, no reuse)", got, want)
	}
	// The flip can no longer happen.
	if err := migrateMaps(l, 1, 100, map[int]qos.Resources{0: {CPU: 80, Memory: 800}}, nil); err == nil {
		t.Fatal("flip of released session accepted")
	}
	l.ReleaseOwner(100)
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationExpiredHoldsLoseProtection(t *testing.T) {
	l, clk, _ := newTestLedger(t)
	commitTestSession(t, l, 1, map[int]qos.Resources{0: {CPU: 90, Memory: 900}}, nil)
	if err := l.BeginMigration(100, 1); err != nil {
		t.Fatal(err)
	}
	if ok := l.HoldNode(100, 0, 0, qos.Resources{CPU: 50, Memory: 500}, 10*time.Second); !ok {
		t.Fatal("hold rejected")
	}
	clk.now = 11 * time.Second
	// The hold expired; the probe's view still credits the committed
	// share, and invariants hold with the window open.
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := l.NodeAvailableForAt(ledgerClock, 100, 0), l.NodeCapacity(0); got != want {
		t.Fatalf("probe view after expiry = %v, want %v", got, want)
	}
	l.EndMigration(100)
}
