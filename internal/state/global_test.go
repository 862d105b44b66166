package state

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/overlay"
	"repro/internal/qos"
)

func newTestGlobal(t *testing.T) (*Global, *Ledger, *clock, *metrics.Counters) {
	t.Helper()
	mesh := testMesh(t, 20, 2)
	clk := &clock{}
	l := NewLedger(mesh, qos.Resources{CPU: 100, Memory: 1000}, clk.Now)
	var c metrics.Counters
	g, err := NewGlobal(l, mesh, DefaultGlobalConfig(), &c)
	if err != nil {
		t.Fatal(err)
	}
	return g, l, clk, &c
}

// report is the node's coarse availability as a freshly refreshed
// replica holds it.
func report(g *Global, node int) qos.Resources {
	var r Replica
	g.Refresh(&r)
	return r.Nodes[node]
}

// aggregated is the route's coarse bandwidth as a freshly refreshed
// replica has it.
func aggregated(g *Global, route overlay.Route) float64 {
	var r Replica
	g.Refresh(&r)
	return r.RouteAvailable(route)
}

func TestNewGlobalValidation(t *testing.T) {
	mesh := testMesh(t, 10, 3)
	clk := &clock{}
	l := NewLedger(mesh, qos.Resources{CPU: 1}, clk.Now)
	bad := DefaultGlobalConfig()
	bad.UpdateThreshold = 1
	if _, err := NewGlobal(l, mesh, bad, nil); err == nil {
		t.Error("threshold 1 accepted")
	}
	if _, err := NewGlobal(l, mesh, DefaultGlobalConfig(), nil); err != nil {
		t.Errorf("nil counters rejected: %v", err)
	}
}

func TestGlobalThresholdFiltering(t *testing.T) {
	g, l, _, c := newTestGlobal(t)

	// A small commit (5% of CPU, 2% of memory) stays below the 10%
	// threshold: the view must NOT update.
	if err := l.CommitSession(1, map[int]qos.Resources{0: {CPU: 5, Memory: 20}}, nil); err != nil {
		t.Fatal(err)
	}
	if got := report(g, 0); got != (qos.Resources{CPU: 100, Memory: 1000}) {
		t.Errorf("view updated for insignificant change: %v", got)
	}
	if c.StateUpdates.Load() != 0 {
		t.Errorf("StateUpdates = %d, want 0", c.StateUpdates.Load())
	}

	// A further commit pushing total drift past 10% triggers an update.
	if err := l.CommitSession(2, map[int]qos.Resources{0: {CPU: 7}}, nil); err != nil {
		t.Fatal(err)
	}
	if got := report(g, 0); got != (qos.Resources{CPU: 88, Memory: 980}) {
		t.Errorf("view after significant change = %v, want fresh truth", got)
	}
	if c.StateUpdates.Load() != 1 {
		t.Errorf("StateUpdates = %d, want 1", c.StateUpdates.Load())
	}
}

func TestGlobalLinkThresholdAndAggregation(t *testing.T) {
	g, l, _, c := newTestGlobal(t)
	capacity := l.LinkCapacity(0)

	// Drain 50% of link 0: triggers a report, but virtual-link queries
	// still see the stale aggregation snapshot.
	if err := l.CommitSession(1, nil, map[int]float64{0: capacity / 2}); err != nil {
		t.Fatal(err)
	}
	if c.StateUpdates.Load() != 1 {
		t.Fatalf("StateUpdates = %d, want 1", c.StateUpdates.Load())
	}
	lk := g.mesh.Link(0)
	route, ok := g.mesh.RouteBetween(lk.A, lk.B)
	if !ok {
		t.Fatal("no route between link endpoints")
	}
	// The direct route may or may not use link 0; query it via a
	// hand-built route to pin the link.
	pinned := route
	pinned.Links = []int{0}
	if got := aggregated(g, pinned); got != capacity {
		t.Errorf("pre-aggregation RouteAvailable = %v, want stale %v", got, capacity)
	}

	g.Aggregate()
	if got := aggregated(g, pinned); got != capacity/2 {
		t.Errorf("post-aggregation RouteAvailable = %v, want %v", got, capacity/2)
	}
	if c.Aggregations.Load() != int64(g.mesh.NumNodes()) {
		t.Errorf("Aggregations = %d, want %d", c.Aggregations.Load(), g.mesh.NumNodes())
	}
}

func TestGlobalIgnoresTransientHolds(t *testing.T) {
	g, l, _, c := newTestGlobal(t)
	// Large transient hold: the coarse state must not hear about it.
	if !l.HoldNode(1, 0, 0, qos.Resources{CPU: 90, Memory: 900}, time.Minute) {
		t.Fatal("hold rejected")
	}
	if got := report(g, 0); got != (qos.Resources{CPU: 100, Memory: 1000}) {
		t.Errorf("global view saw a transient hold: %v", got)
	}
	if c.StateUpdates.Load() != 0 {
		t.Errorf("StateUpdates = %d, want 0", c.StateUpdates.Load())
	}
}

func TestGlobalSessionReleaseTriggersUpdate(t *testing.T) {
	g, l, _, _ := newTestGlobal(t)
	if err := l.CommitSession(1, map[int]qos.Resources{3: {CPU: 50, Memory: 500}}, nil); err != nil {
		t.Fatal(err)
	}
	if got := report(g, 3).CPU; got != 50 {
		t.Fatalf("view after commit = %v", got)
	}
	l.ReleaseSession(1)
	if got := report(g, 3).CPU; got != 100 {
		t.Errorf("view after release = %v, want 100", got)
	}
}

func TestForceRefresh(t *testing.T) {
	g, l, _, _ := newTestGlobal(t)
	// Small (sub-threshold) commits leave the view stale...
	if err := l.CommitSession(1, map[int]qos.Resources{0: {CPU: 5}}, map[int]float64{0: 1}); err != nil {
		t.Fatal(err)
	}
	if report(g, 0).CPU != 100 {
		t.Fatal("unexpected eager update")
	}
	// ...until a forced refresh exposes the truth everywhere.
	g.ForceRefresh()
	if got := report(g, 0).CPU; got != 95 {
		t.Errorf("CPU after refresh = %v, want 95", got)
	}
	route := overlay.Route{Links: []int{0}}
	if got := aggregated(g, route); got != l.LinkCapacity(0)-1 {
		t.Errorf("link view after refresh = %v, want %v", got, l.LinkCapacity(0)-1)
	}
}

func TestRouteAvailableCoLocated(t *testing.T) {
	g, _, _, _ := newTestGlobal(t)
	r, _ := g.mesh.RouteBetween(4, 4)
	if got := aggregated(g, r); !math.IsInf(got, 1) {
		t.Errorf("co-located RouteAvailable = %v, want +Inf", got)
	}
}

// TestReplicaTracksGlobal drives the coarse state through a random
// sequence of commits, releases, aggregations and forced refreshes. After
// every step a refreshed replica reads exactly what the global state
// answers — nodes and the aggregated link snapshot — and Refresh copies
// once per change of what it replicates, not once per call.
func TestReplicaTracksGlobal(t *testing.T) {
	g, l, _, _ := newTestGlobal(t)
	rng := rand.New(rand.NewSource(3))
	var r Replica
	if !g.Refresh(&r) {
		t.Fatal("the first Refresh of an empty replica copied nothing")
	}
	seen := g.version.Load()
	var live []Owner
	copies := 0
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			owner := Owner(step + 1)
			nodes := map[int]qos.Resources{rng.Intn(l.NumNodes()): {CPU: float64(1 + rng.Intn(12)), Memory: float64(10 + rng.Intn(120))}}
			link := rng.Intn(l.NumLinks())
			links := map[int]float64{link: l.LinkCapacity(link) * rng.Float64() / 8}
			if err := l.CommitSession(owner, nodes, links); err == nil {
				live = append(live, owner)
			}
		case op < 8 && len(live) > 0:
			i := rng.Intn(len(live))
			l.ReleaseSession(live[i])
			live = append(live[:i], live[i+1:]...)
		case op == 8:
			g.Aggregate()
		default:
			g.ForceRefresh()
		}
		moved := g.version.Load() != seen
		seen = g.version.Load()
		if copied := g.Refresh(&r); copied != moved {
			t.Fatalf("step %d: Refresh copied = %v with the replicated views changed = %v", step, copied, moved)
		} else if copied {
			copies++
		}
		if g.Refresh(&r) {
			t.Fatalf("step %d: a second Refresh with nothing changed copied again", step)
		}
		for n := range r.Nodes {
			if r.Nodes[n] != g.nodeView[n] {
				t.Fatalf("step %d: replica node %d = %v, global says %v", step, n, r.Nodes[n], g.nodeView[n])
			}
		}
		for k := range r.Agg {
			route := overlay.Route{Links: []int{k}}
			if got, want := r.RouteAvailable(route), g.aggView[k]; got != want {
				t.Fatalf("step %d: replica link %d = %v, global says %v", step, k, got, want)
			}
		}
	}
	if len(r.Nodes) != l.NumNodes() || len(r.Agg) != l.NumLinks() {
		t.Fatalf("replica holds %d nodes and %d links, ledger has %d and %d", len(r.Nodes), len(r.Agg), l.NumNodes(), l.NumLinks())
	}
	// Sub-threshold commits and link reports move nothing a replica
	// holds: most steps must have been free.
	if copies == 0 || copies > 400 {
		t.Fatalf("%d of 600 steps copied", copies)
	}
	if got := r.RouteAvailable(overlay.Route{CoLocated: true}); !math.IsInf(got, 1) {
		t.Errorf("co-located replica RouteAvailable = %v, want +Inf", got)
	}
}

// TestReplicaRefreshConcurrentWithUpdates refreshes replicas from several
// goroutines while commits, releases and aggregations rewrite the views
// (meaningful under -race): the version fast path must never let a
// reader copy a view a writer is in the middle of.
func TestReplicaRefreshConcurrentWithUpdates(t *testing.T) {
	g, l, _, _ := newTestGlobal(t)
	l.EnableLocking()
	var readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var r Replica
			for {
				select {
				case <-stop:
					return
				default:
				}
				g.Refresh(&r)
				if len(r.Nodes) != l.NumNodes() || len(r.Agg) != l.NumLinks() {
					t.Errorf("replica holds %d nodes and %d links", len(r.Nodes), len(r.Agg))
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		owner := Owner(i + 1)
		if err := l.CommitSession(owner, map[int]qos.Resources{i % l.NumNodes(): {CPU: 40, Memory: 400}}, map[int]float64{i % l.NumLinks(): 1}); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			g.Aggregate()
		}
		l.ReleaseSession(owner)
	}
	close(stop)
	readers.Wait()
	var r Replica
	g.Refresh(&r)
	for n := range r.Nodes {
		if r.Nodes[n] != g.nodeView[n] {
			t.Fatalf("replica node %d = %v, global says %v", n, r.Nodes[n], g.nodeView[n])
		}
	}
}

// TestLedgerBeforeGlobalLockOrder pins the one nested lock pair in the
// repository. A committed change runs the threshold rule (nodeChanged,
// linkChanged) under the ledger lock, and the rule takes the global lock:
// so no method holding the global lock may read the ledger. Every method
// that takes the global lock races commits and releases; an inversion
// deadlocks the two goroutines, and the watchdog fails the test instead
// of hanging the binary.
func TestLedgerBeforeGlobalLockOrder(t *testing.T) {
	g, l, _, counters := newTestGlobal(t)
	l.EnableLocking()
	const cycles = 2000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var r Replica
		for i := 0; i < cycles; i++ {
			g.Aggregate()
			g.ForceRefresh()
			g.Refresh(&r)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < cycles; i++ {
			owner := Owner(i + 1)
			if err := l.CommitSession(owner, map[int]qos.Resources{i % l.NumNodes(): {CPU: 40, Memory: 400}}, map[int]float64{i % l.NumLinks(): 1}); err != nil {
				t.Error(err)
				return
			}
			l.ReleaseSession(owner)
		}
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the global-state readers and the ledger's commits did not finish in 10 s: a lock-order inversion deadlocked them")
	}
	if counters.Snapshot().StateUpdates == 0 {
		t.Fatal("no commit crossed the update threshold, so the ledger never took the global lock")
	}
}
