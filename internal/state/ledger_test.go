package state

import (
	"math"
	"math/rand"
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
