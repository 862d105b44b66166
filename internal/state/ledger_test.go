package state

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/overlay"
	"repro/internal/qos"
	"repro/internal/topology"
)

func testMesh(t testing.TB, overlayNodes int, seed int64) *overlay.Mesh {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tcfg := topology.DefaultConfig()
	tcfg.Nodes = 300
	g, err := topology.Generate(tcfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	ocfg := overlay.DefaultConfig()
	ocfg.Nodes = overlayNodes
	m, err := overlay.Build(g, ocfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

type clock struct{ now time.Duration }

func (c *clock) Now() time.Duration { return c.now }

func newTestLedger(t *testing.T) (*Ledger, *clock, *overlay.Mesh) {
	t.Helper()
	mesh := testMesh(t, 20, 1)
	clk := &clock{}
	l := NewLedger(mesh, qos.Resources{CPU: 100, Memory: 1000}, clk.Now)
	return l, clk, mesh
}

// nobody holds nothing: what it reads of a node is the node's plain
// availability.
const nobody Owner = -1

// nodeAvailable is the node's precise availability at the ledger's clock:
// capacity minus committed sessions minus live transient holds.
func nodeAvailable(l *Ledger, node int) qos.Resources {
	return l.NodeAvailableForAt(ledgerClock, nobody, node)
}

func TestLedgerInitialAvailability(t *testing.T) {
	l, _, mesh := newTestLedger(t)
	want := qos.Resources{CPU: 100, Memory: 1000}
	for n := 0; n < l.NumNodes(); n++ {
		if got := nodeAvailable(l, n); got != want {
			t.Fatalf("node %d available = %v, want %v", n, got, want)
		}
	}
	for id := 0; id < l.NumLinks(); id++ {
		if got := l.LinkAvailable(id); got != mesh.Link(id).Capacity {
			t.Fatalf("link %d available = %v, want %v", id, got, mesh.Link(id).Capacity)
		}
	}
}

func TestHoldNodeLifecycle(t *testing.T) {
	l, clk, _ := newTestLedger(t)
	req := qos.Resources{CPU: 30, Memory: 100}

	if !l.HoldNode(1, 0, 0, req, 10*time.Second) {
		t.Fatal("hold rejected with plenty of capacity")
	}
	if got := nodeAvailable(l, 0); got != (qos.Resources{CPU: 70, Memory: 900}) {
		t.Errorf("available after hold = %v", got)
	}
	// Idempotent per owner (footnote 7).
	if !l.HoldNode(1, 0, 0, req, 10*time.Second) {
		t.Fatal("repeat hold by same owner rejected")
	}
	if got := nodeAvailable(l, 0); got != (qos.Resources{CPU: 70, Memory: 900}) {
		t.Errorf("available after duplicate hold = %v", got)
	}
	// A different owner stacks.
	if !l.HoldNode(2, 0, 0, req, 10*time.Second) {
		t.Fatal("second owner's hold rejected")
	}
	if got := nodeAvailable(l, 0); got != (qos.Resources{CPU: 40, Memory: 800}) {
		t.Errorf("available after two holds = %v", got)
	}
	// Expiry restores capacity.
	clk.now = 11 * time.Second
	if got := nodeAvailable(l, 0); got != (qos.Resources{CPU: 100, Memory: 1000}) {
		t.Errorf("available after expiry = %v", got)
	}
}

func TestHoldNodeInsufficient(t *testing.T) {
	l, _, _ := newTestLedger(t)
	if l.HoldNode(1, 0, 0, qos.Resources{CPU: 101}, time.Second) {
		t.Error("hold above capacity accepted")
	}
	if !l.HoldNode(1, 0, 0, qos.Resources{CPU: 60}, time.Second) {
		t.Fatal("first hold rejected")
	}
	if l.HoldNode(2, 0, 0, qos.Resources{CPU: 60}, time.Second) {
		t.Error("conflicting hold accepted — transient allocation failed to prevent over-admission")
	}
}

func TestHoldLinkLifecycle(t *testing.T) {
	l, clk, mesh := newTestLedger(t)
	capacity := mesh.Link(0).Capacity
	if !l.HoldLink(1, 0, 0, capacity-1, 5*time.Second) {
		t.Fatal("link hold rejected")
	}
	if l.HoldLink(2, 0, 0, 2, 5*time.Second) {
		t.Error("over-capacity link hold accepted")
	}
	if !l.HoldLink(1, 0, 0, 2, 5*time.Second) {
		t.Error("idempotent link hold rejected")
	}
	clk.now = 6 * time.Second
	if got := l.LinkAvailable(0); got != capacity {
		t.Errorf("link available after expiry = %v, want %v", got, capacity)
	}
}

func TestReleaseOwner(t *testing.T) {
	l, _, _ := newTestLedger(t)
	l.HoldNode(1, 0, 0, qos.Resources{CPU: 10}, time.Minute)
	l.HoldNode(1, 1, 1, qos.Resources{CPU: 20}, time.Minute)
	l.HoldLink(1, 0, 0, 100, time.Minute)
	l.HoldNode(2, 0, 0, qos.Resources{CPU: 5}, time.Minute)

	l.ReleaseOwner(1)
	if got := nodeAvailable(l, 0); got.CPU != 95 {
		t.Errorf("node 0 CPU = %v, want 95 (owner 2's hold kept)", got.CPU)
	}
	if got := nodeAvailable(l, 1); got.CPU != 100 {
		t.Errorf("node 1 CPU = %v, want 100", got.CPU)
	}
	if got := l.LinkAvailable(0); got != l.LinkCapacity(0) {
		t.Errorf("link 0 available = %v, want full capacity", got)
	}
}

// TestReleasedHoldsLeaveNoResidue: holds of 0.1 and 0.2 sum to
// 0.30000000000000004, and taking them back one by one leaves a one-ulp
// held total unless the account is zeroed once its hold list is empty.
// Each way a hold goes (release, owner release, expiry) must leave the
// node's whole committed availability committable.
func TestReleasedHoldsLeaveNoResidue(t *testing.T) {
	ways := map[string]func(l *Ledger, clk *clock){
		"release": func(l *Ledger, _ *clock) {
			l.ReleaseNodeHold(1, 0, 2)
			l.ReleaseNodeHold(2, 0, 2)
		},
		"owner": func(l *Ledger, _ *clock) {
			l.ReleaseOwner(1)
			l.ReleaseOwner(2)
		},
		"expiry": func(l *Ledger, clk *clock) {
			clk.now = time.Minute
			nodeAvailable(l, 2)
		},
	}
	for name, release := range ways {
		l, clk, _ := newTestLedger(t)
		l.HoldNode(1, 0, 2, qos.Resources{CPU: 0.1, Memory: 0.1}, time.Second)
		l.HoldNode(2, 0, 2, qos.Resources{CPU: 0.2, Memory: 0.2}, time.Second)
		release(l, clk)
		// A residue shows only against a small residual.
		if err := l.CommitShares(8, []NodeShare{{ID: 2, Amount: qos.Resources{CPU: 99.9, Memory: 999.9}}}, nil); err != nil {
			t.Fatal(err)
		}
		room := l.NodeCommittedAvailable(2)
		if err := l.CommitShares(9, []NodeShare{{ID: 2, Amount: room}}, nil); err != nil {
			t.Errorf("%s: committing the whole residual %v after the holds went: %v", name, room, err)
		}
	}
}

func TestCommitSessionPromotesHolds(t *testing.T) {
	l, clk, _ := newTestLedger(t)
	req := qos.Resources{CPU: 40, Memory: 200}
	if !l.HoldNode(7, 0, 3, req, 10*time.Second) {
		t.Fatal("hold rejected")
	}
	err := l.CommitSession(7, map[int]qos.Resources{3: req}, map[int]float64{0: 50})
	if err != nil {
		t.Fatalf("CommitSession: %v", err)
	}
	if got := l.ActiveSessions(); got != 1 {
		t.Errorf("ActiveSessions = %d", got)
	}
	// Holds are gone; committed allocation persists past hold expiry.
	clk.now = time.Minute
	if got := nodeAvailable(l, 3); got != (qos.Resources{CPU: 60, Memory: 800}) {
		t.Errorf("available after commit = %v", got)
	}
	if got := l.LinkAvailable(0); got != l.LinkCapacity(0)-50 {
		t.Errorf("link available after commit = %v", got)
	}
	// Session release restores everything.
	l.ReleaseSession(7)
	if got := nodeAvailable(l, 3); got != (qos.Resources{CPU: 100, Memory: 1000}) {
		t.Errorf("available after release = %v", got)
	}
	if got := l.ActiveSessions(); got != 0 {
		t.Errorf("ActiveSessions after release = %d", got)
	}
}

func TestCommitSessionFailures(t *testing.T) {
	l, _, _ := newTestLedger(t)
	if err := l.CommitSession(1, map[int]qos.Resources{0: {CPU: 101}}, nil); err == nil {
		t.Error("over-capacity node commit accepted")
	}
	if err := l.CommitSession(2, nil, map[int]float64{0: l.LinkCapacity(0) + 1}); err == nil {
		t.Error("over-capacity link commit accepted")
	}
	if err := l.CommitSession(3, map[int]qos.Resources{0: {CPU: 10}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.CommitSession(3, map[int]qos.Resources{0: {CPU: 10}}, nil); err == nil {
		t.Error("duplicate session commit accepted")
	}
	// Shares on nodes or links the ledger does not have are refused, as
	// MigrateSession refuses them, and nothing is committed.
	for _, bad := range []int{-1, l.NumNodes()} {
		if err := l.CommitSession(4, map[int]qos.Resources{bad: {CPU: 1}}, nil); err == nil {
			t.Errorf("commit on node %d accepted", bad)
		}
	}
	for _, bad := range []int{-1, l.NumLinks()} {
		if err := l.CommitSession(4, nil, map[int]float64{bad: 1}); err == nil {
			t.Errorf("commit on link %d accepted", bad)
		}
	}
	if l.HasSession(4) {
		t.Error("a refused commit left a session")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// pristine reports the first node or link whose availability is not its
// full capacity: something is committed or held there.
func pristine(l *Ledger) error {
	for n := 0; n < l.NumNodes(); n++ {
		if got := nodeAvailable(l, n); got != l.NodeCapacity(n) {
			return fmt.Errorf("node %d has %v available of %v", n, got, l.NodeCapacity(n))
		}
	}
	for k := 0; k < l.NumLinks(); k++ {
		if got := l.LinkAvailable(k); got != l.LinkCapacity(k) {
			return fmt.Errorf("link %d has %v available of %v", k, got, l.LinkCapacity(k))
		}
	}
	return l.CheckInvariants()
}

// TestCommitSharesRefusesBadShares: the dense form refuses a share whose
// id is out of range or repeats an earlier share's — a map could not
// carry the repeat, and it would be checked against availability twice —
// before anything is committed. As for a share that cannot be covered,
// the owner's holds are released; a refusal of the owner itself (already
// committed, or migrating) leaves them. The error names the first failing
// share in input order.
func TestCommitSharesRefusesBadShares(t *testing.T) {
	l, _, _ := newTestLedger(t)
	one := qos.Resources{CPU: 1, Memory: 1}
	over := qos.Resources{CPU: 101, Memory: 1}
	for _, tc := range []struct {
		nodes []NodeShare
		links []LinkShare
		want  string
	}{
		{[]NodeShare{{0, one}, {1, one}, {0, one}}, nil, "node 0 listed twice"},
		{[]NodeShare{{0, one}}, []LinkShare{{2, 1}, {3, 1}, {2, 1}}, "link 2 listed twice"},
		{[]NodeShare{{-1, one}}, nil, "node -1 out of range"},
		{[]NodeShare{{0, one}, {l.NumNodes(), one}}, nil, fmt.Sprintf("node %d out of range", l.NumNodes())},
		{nil, []LinkShare{{1, 1}, {l.NumLinks(), 1}}, fmt.Sprintf("link %d out of range", l.NumLinks())},
		// Input order, not id order, decides which failure is named.
		{[]NodeShare{{4, over}, {2, one}, {2, one}}, nil, "node 4 cannot cover"},
		{[]NodeShare{{4, one}, {2, one}, {2, one}, {1, over}}, nil, "node 2 listed twice"},
		{[]NodeShare{{4, one}}, []LinkShare{{5, l.LinkCapacity(5) + 1}, {-1, 1}}, "link 5 cannot cover"},
	} {
		if !l.HoldNode(9, 0, 6, one, time.Hour) || !l.HoldLink(9, 0, 7, 1, time.Hour) {
			t.Fatal("hold rejected")
		}
		err := l.CommitShares(9, tc.nodes, tc.links)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("CommitShares(%v, %v) = %v, want an error naming %q", tc.nodes, tc.links, err, tc.want)
		}
		if l.HasSession(9) {
			t.Fatalf("a refused commit left a session")
		}
		if err := pristine(l); err != nil {
			t.Fatalf("after refusing %q: %v", tc.want, err)
		}
	}
	// The map form takes its shares in id order, so its error is as
	// deterministic.
	for i := 0; i < 20; i++ {
		err := l.CommitSession(9, map[int]qos.Resources{5: over, 3: over, 8: over}, nil)
		if err == nil || !strings.Contains(err.Error(), "node 3 cannot cover") {
			t.Fatalf("map-form commit = %v, want an error naming node 3", err)
		}
	}

	// A refused owner keeps its holds, as before shares are looked at.
	if err := l.CommitShares(1, []NodeShare{{0, one}}, nil); err != nil {
		t.Fatal(err)
	}
	if !l.HoldNode(1, 0, 6, one, time.Hour) {
		t.Fatal("hold rejected")
	}
	if err := l.CommitShares(1, []NodeShare{{2, one}, {2, one}}, nil); err == nil || !strings.Contains(err.Error(), "already committed") {
		t.Fatalf("second commit = %v, want already committed", err)
	}
	if got, want := nodeAvailable(l, 6), l.NodeCapacity(6).Sub(one); got != want {
		t.Fatalf("node 6 has %v available after a refused second commit, want %v (hold kept)", got, want)
	}
}

// TestCommitSharesSides: either side may be empty, and both sides commit
// and release cleanly; the ledger keeps its own copy of what it is given,
// so a caller may reuse its slices.
func TestCommitSharesSides(t *testing.T) {
	l, _, _ := newTestLedger(t)
	one := qos.Resources{CPU: 1, Memory: 1}
	nodes := []NodeShare{{3, qos.Resources{CPU: 30, Memory: 300}}, {1, one}}
	links := []LinkShare{{4, 25}, {0, 5}}
	for owner, tc := range []struct {
		nodes []NodeShare
		links []LinkShare
	}{{nil, nil}, {nodes, nil}, {nil, links}, {nodes, links}, {[]NodeShare{}, []LinkShare{}}} {
		if err := l.CommitShares(Owner(owner), tc.nodes, tc.links); err != nil {
			t.Fatalf("commit %v, %v: %v", tc.nodes, tc.links, err)
		}
		if len(tc.nodes) != 0 {
			if got, want := l.NodeCommittedAvailable(3), l.NodeCapacity(3).Sub(qos.Resources{CPU: 30, Memory: 300}); got != want {
				t.Fatalf("node 3 committed available %v, want %v", got, want)
			}
		}
		if len(tc.links) != 0 {
			if got, want := l.LinkCommittedAvailable(4), l.LinkCapacity(4)-25; got != want {
				t.Fatalf("link 4 committed available %v, want %v", got, want)
			}
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// The caller's slices are its own again.
		scribble := append([]NodeShare(nil), nodes...)
		copy(nodes, []NodeShare{{0, one}, {2, one}})
		l.ReleaseSession(Owner(owner))
		copy(nodes, scribble)
		if l.HasSession(Owner(owner)) {
			t.Fatal("released session still committed")
		}
		if err := pristine(l); err != nil {
			t.Fatalf("after releasing %v, %v: %v", tc.nodes, tc.links, err)
		}
	}
}

func TestCommitUsesOwnHeldResources(t *testing.T) {
	// A request that held almost everything must still be able to commit:
	// its own holds are released first.
	l, _, _ := newTestLedger(t)
	req := qos.Resources{CPU: 90, Memory: 900}
	if !l.HoldNode(5, 0, 2, req, time.Minute) {
		t.Fatal("hold rejected")
	}
	if err := l.CommitSession(5, map[int]qos.Resources{2: req}, nil); err != nil {
		t.Fatalf("commit after own hold failed: %v", err)
	}
}

func TestReleaseUnknownSession(t *testing.T) {
	l, _, _ := newTestLedger(t)
	l.ReleaseSession(99) // must not panic or change state
	if got := nodeAvailable(l, 0); got.CPU != 100 {
		t.Errorf("available changed: %v", got)
	}
}

func TestRouteAvailable(t *testing.T) {
	l, _, mesh := newTestLedger(t)
	r, ok := mesh.RouteBetween(0, 5)
	if !ok {
		t.Fatal("no route")
	}
	want := math.Inf(1)
	for _, id := range r.Links {
		want = math.Min(want, l.LinkAvailable(id))
	}
	if got := l.RouteAvailable(r); got != want {
		t.Errorf("RouteAvailable = %v, want %v", got, want)
	}
	// Consume bandwidth on the first link; route availability drops.
	first := r.Links[0]
	if err := l.CommitSession(1, nil, map[int]float64{first: l.LinkAvailable(first) - 10}); err != nil {
		t.Fatal(err)
	}
	if got := l.RouteAvailable(r); got != 10 {
		t.Errorf("RouteAvailable after drain = %v, want 10", got)
	}
	// Co-located route is infinite.
	self, _ := mesh.RouteBetween(3, 3)
	if got := l.RouteAvailable(self); !math.IsInf(got, 1) {
		t.Errorf("co-located RouteAvailable = %v, want +Inf", got)
	}
}

// TestConservation: whatever combination of holds, commits, releases and
// expiries happens, capacity is never exceeded and fully returns after
// everything is released.
func TestConservation(t *testing.T) {
	l, clk, _ := newTestLedger(t)
	rng := rand.New(rand.NewSource(42))
	committed := make(map[Owner]bool)
	for step := 0; step < 2000; step++ {
		clk.now += time.Duration(rng.Intn(500)) * time.Millisecond
		owner := Owner(rng.Intn(20))
		node := rng.Intn(l.NumNodes())
		switch rng.Intn(4) {
		case 0:
			l.HoldNode(owner, rng.Intn(3), node, qos.Resources{CPU: float64(rng.Intn(50)), Memory: float64(rng.Intn(400))},
				clk.now+time.Duration(rng.Intn(2000))*time.Millisecond)
		case 1:
			if !committed[owner] {
				amount := qos.Resources{CPU: float64(rng.Intn(30)), Memory: float64(rng.Intn(200))}
				if err := l.CommitSession(owner, map[int]qos.Resources{node: amount}, nil); err == nil {
					committed[owner] = true
				}
			}
		case 2:
			if committed[owner] {
				l.ReleaseSession(owner)
				delete(committed, owner)
			}
		case 3:
			l.ReleaseOwner(owner)
		}
		if got := nodeAvailable(l, node); got.CPU < 0 || got.Memory < 0 {
			t.Fatalf("step %d: node %d over-committed: %v", step, node, got)
		}
	}
	for o := range committed {
		l.ReleaseSession(o)
	}
	clk.now += time.Hour // expire all holds
	for n := 0; n < l.NumNodes(); n++ {
		if got := nodeAvailable(l, n); got != (qos.Resources{CPU: 100, Memory: 1000}) {
			t.Fatalf("node %d did not return to full capacity: %v", n, got)
		}
	}
}

func TestAvailableForCreditsOwnHolds(t *testing.T) {
	l, _, _ := newTestLedger(t)
	if !l.HoldNode(9, 0, 4, qos.Resources{CPU: 30, Memory: 300}, time.Minute) {
		t.Fatal("hold rejected")
	}
	if !l.HoldNode(9, 1, 4, qos.Resources{CPU: 20, Memory: 100}, time.Minute) {
		t.Fatal("second hold rejected")
	}
	if !l.HoldNode(8, 0, 4, qos.Resources{CPU: 10, Memory: 50}, time.Minute) {
		t.Fatal("other owner's hold rejected")
	}
	// Plain availability excludes everything.
	if got := nodeAvailable(l, 4); got != (qos.Resources{CPU: 40, Memory: 550}) {
		t.Errorf("NodeAvailable = %v", got)
	}
	// Owner 9 sees its own 50 CPU / 400 MB credited back.
	if got := l.NodeAvailableForAt(ledgerClock, 9, 4); got != (qos.Resources{CPU: 90, Memory: 950}) {
		t.Errorf("NodeAvailableForAt(9) = %v", got)
	}
	// Owner 8 sees only its own 10/50 back.
	if got := l.NodeAvailableForAt(ledgerClock, 8, 4); got != (qos.Resources{CPU: 50, Memory: 600}) {
		t.Errorf("NodeAvailableForAt(8) = %v", got)
	}

	if !l.HoldLink(9, 0, 0, 500, time.Minute) {
		t.Fatal("link hold rejected")
	}
	if got := l.LinkAvailableForAt(ledgerClock, 9, 0); got != l.LinkCapacity(0) {
		t.Errorf("LinkAvailableForAt = %v, want full capacity", got)
	}
	if got := l.LinkAvailableForAt(ledgerClock, 7, 0); got != l.LinkCapacity(0)-500 {
		t.Errorf("LinkAvailableForAt(other) = %v", got)
	}
}

func TestCheckInvariantsUnderStochasticOps(t *testing.T) {
	l, clk, mesh := newTestLedger(t)
	rng := rand.New(rand.NewSource(77))
	committed := make(map[Owner]bool)
	for step := 0; step < 3000; step++ {
		clk.now += time.Duration(rng.Intn(300)) * time.Millisecond
		owner := Owner(rng.Intn(25))
		node := rng.Intn(l.NumNodes())
		link := rng.Intn(l.NumLinks())
		switch rng.Intn(6) {
		case 0:
			l.HoldNode(owner, rng.Intn(4), node,
				qos.Resources{CPU: float64(rng.Intn(40)), Memory: float64(rng.Intn(300))},
				clk.now+time.Duration(rng.Intn(3000))*time.Millisecond)
		case 1:
			l.HoldLink(owner, rng.Intn(4), link, float64(rng.Intn(2000)),
				clk.now+time.Duration(rng.Intn(3000))*time.Millisecond)
		case 2:
			if !committed[owner] {
				nodes := map[int]qos.Resources{node: {CPU: float64(rng.Intn(25)), Memory: float64(rng.Intn(150))}}
				links := map[int]float64{link: float64(rng.Intn(1000))}
				if err := l.CommitSession(owner, nodes, links); err == nil {
					committed[owner] = true
				}
			}
		case 3:
			if committed[owner] {
				l.ReleaseSession(owner)
				delete(committed, owner)
			}
		case 4:
			l.ReleaseOwner(owner)
		case 5:
			// Pure time passage expires holds.
			clk.now += time.Duration(rng.Intn(2000)) * time.Millisecond
		}
		if step%100 == 0 {
			if err := l.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	_ = mesh
}
