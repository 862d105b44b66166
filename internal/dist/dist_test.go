package dist

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/qos"
	"repro/internal/state"
)

// testCluster runs on the auto-advanced virtual clock (virtual_test.go)
// so protocol timeouts cost microseconds of wall time. Tests that probe
// real wall-clock behaviour build their own cluster with New.
func testCluster(t *testing.T) *Cluster {
	t.Helper()
	return virtualCluster(t, DefaultConfig())
}

// awaitIdle polls Idle until it holds or the timeout elapses — holds
// orphaned by injected loss take up to HoldTTL (plus a sweep period) to
// decay. The clock is read before each poll, so the last poll always
// follows the deadline: a virtual clock that races ahead between a poll
// and the deadline check cannot turn a not-yet-idle answer into a timeout.
func (c *Cluster) awaitIdle(timeout time.Duration) bool {
	deadline := c.clock.Now().Add(timeout)
	for {
		late := c.clock.Now().After(deadline)
		if c.Idle() {
			return true
		}
		if late {
			return false
		}
		c.clock.Sleep(10 * time.Millisecond)
	}
}

func easyRequest(client int) *component.Request {
	return &component.Request{
		Graph:        component.NewPathGraph([]component.FunctionID{0, 1, 2}),
		QoSReq:       qos.Vector{Delay: 100000, LossCost: qos.LossCost(0.9)},
		ResReq:       []qos.Resources{{CPU: 8, Memory: 80}, {CPU: 8, Memory: 80}, {CPU: 8, Memory: 80}},
		BandwidthReq: 100,
		Client:       client,
		Duration:     5 * time.Minute,
	}
}

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbingRatio = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero probing ratio accepted")
	}
	cfg = DefaultConfig()
	cfg.CollectTimeout = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero collect timeout accepted")
	}
}

func TestComposeEasyRequest(t *testing.T) {
	c := testCluster(t)
	req := easyRequest(3)
	comp, err := c.Compose(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Components) != 3 {
		t.Fatalf("components = %d", len(comp.Components))
	}
	for pos, id := range comp.Components {
		if got := c.catalog.Component(id).Function; got != req.Graph.Functions[pos] {
			t.Errorf("position %d provides function %d, want %d", pos, got, req.Graph.Functions[pos])
		}
	}
	if !comp.QoS.Within(req.QoSReq) {
		t.Errorf("QoS %v violates %v", comp.QoS, req.QoSReq)
	}
	if comp.Phi <= 0 {
		t.Errorf("phi = %v", comp.Phi)
	}
	c.Release(req, comp)
}

func TestComposeDAGRequest(t *testing.T) {
	c := testCluster(t)
	graph, err := component.NewBranchGraph(0, []component.FunctionID{1}, []component.FunctionID{2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	req := easyRequest(0)
	req.Graph = graph
	req.ResReq = []qos.Resources{{CPU: 5, Memory: 50}, {CPU: 5, Memory: 50}, {CPU: 5, Memory: 50}, {CPU: 5, Memory: 50}}
	comp, err := c.Compose(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Components) != 4 {
		t.Fatalf("components = %d", len(comp.Components))
	}
	c.Release(req, comp)
}

func TestComposeInfeasibleFails(t *testing.T) {
	c := testCluster(t)
	req := easyRequest(1)
	req.QoSReq = qos.Vector{Delay: 0.0001, LossCost: 1e-12}
	if _, err := c.Compose(req); !errors.Is(err, ErrNoComposition) {
		t.Fatalf("err = %v, want ErrNoComposition", err)
	}
	req = easyRequest(1)
	req.ResReq = []qos.Resources{{CPU: 1e9}, {CPU: 1e9}, {CPU: 1e9}}
	if _, err := c.Compose(req); !errors.Is(err, ErrNoComposition) {
		t.Fatalf("err = %v, want ErrNoComposition", err)
	}
}

func TestComposeInvalidRequests(t *testing.T) {
	c := testCluster(t)
	req := easyRequest(1)
	req.Duration = 0
	if _, err := c.Compose(req); err == nil {
		t.Error("invalid request accepted")
	}
	req = easyRequest(999)
	if _, err := c.Compose(req); err == nil {
		t.Error("out-of-range client accepted")
	}
}

func TestComposeReleaseConservation(t *testing.T) {
	c := testCluster(t)
	// Compose and release repeatedly; capacity must never leak, so the
	// same demand keeps succeeding.
	for i := 0; i < 40; i++ {
		req := easyRequest(i % c.NumNodes())
		comp, err := c.Compose(req)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		c.Release(req, comp)
	}
	// After a hold-TTL quiet period every node must be back at full
	// capacity (releases are async; allow them to drain).
	if !c.awaitIdle(5 * time.Second) {
		t.Error("capacity did not return to full after compose/release churn")
	}
}

func TestConcurrentCompose(t *testing.T) {
	c := testCluster(t)
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	comps := make(chan struct {
		req  *component.Request
		comp *Composition
	}, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			req := easyRequest(w % c.NumNodes())
			comp, err := c.Compose(req)
			if err != nil {
				if errors.Is(err, ErrNoComposition) {
					return // contention failures are legitimate
				}
				errs <- fmt.Errorf("worker %d: %w", w, err)
				return
			}
			comps <- struct {
				req  *component.Request
				comp *Composition
			}{req, comp}
		}(w)
	}
	wg.Wait()
	close(errs)
	close(comps)
	for err := range errs {
		t.Error(err)
	}
	succeeded := 0
	for s := range comps {
		succeeded++
		c.Release(s.req, s.comp)
	}
	if succeeded == 0 {
		t.Error("no concurrent composition succeeded")
	}
}

func TestSecurityConstraint(t *testing.T) {
	c := testCluster(t)
	req := easyRequest(2)
	req.MinSecurity = 2
	comp, err := c.Compose(req)
	if errors.Is(err, ErrNoComposition) {
		t.Skip("no level-2 chain exists on this seed")
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range comp.Components {
		if c.catalog.Component(id).Security < 2 {
			t.Errorf("component %d has security %d", id, c.catalog.Component(id).Security)
		}
	}
	c.Release(req, comp)
}

func TestShutdownUnblocksCompose(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CollectTimeout = 5 * time.Second // long window
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Compose(easyRequest(0))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Shutdown()
	select {
	case err := <-done:
		if err == nil {
			t.Log("compose finished before shutdown")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Compose hung across Shutdown")
	}
	if _, err := c.Compose(easyRequest(0)); !errors.Is(err, ErrClosed) {
		t.Errorf("post-shutdown compose: %v", err)
	}
	c.Shutdown() // idempotent
}

// TestLinkTableReserveAtomicity: the link ledger reserves a composition's
// stacked bandwidth on every link or on none, and a release returns
// exactly what was reserved.
func TestLinkTableReserveAtomicity(t *testing.T) {
	c := testCluster(t)
	l := c.links
	avail0, avail1 := l.LinkAvailable(0), l.LinkAvailable(1)

	// A reservation that fits on link 0 but not link 1 must change
	// nothing.
	if err := l.CommitShares(1001, nil, []state.LinkShare{{ID: 0, Amount: avail0 / 2}, {ID: 1, Amount: avail1 + 1}}); err == nil {
		t.Fatal("over-capacity reservation accepted")
	}
	if got := l.LinkAvailable(0); got != avail0 {
		t.Errorf("failed reservation leaked: link 0 available %v, want %v", got, avail0)
	}
	if n := l.ActiveSessions(); n != 0 {
		t.Errorf("failed reservation left %d sessions", n)
	}

	// A feasible reservation succeeds and releases exactly.
	if err := l.CommitShares(1002, nil, []state.LinkShare{{ID: 0, Amount: 10}, {ID: 1, Amount: 10}}); err != nil {
		t.Fatalf("feasible reservation rejected: %v", err)
	}
	if got := l.LinkAvailable(0); got != avail0-10 {
		t.Errorf("link 0 available %v after reserving 10 of %v", got, avail0)
	}
	l.ReleaseSession(1002)
	if got0, got1 := l.LinkAvailable(0), l.LinkAvailable(1); got0 != avail0 || got1 != avail1 {
		t.Errorf("release did not restore the links: %v, %v vs %v, %v", got0, got1, avail0, avail1)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestReleaseTwiceReleasesOnce: a second Release of one composition
// frees nothing. While another session is live, every link carries
// exactly that session's demand; afterwards every link is back at
// capacity. (A bandwidth table that adds the demand back per call and
// clamps at capacity hides the double release.)
func TestReleaseTwiceReleasesOnce(t *testing.T) {
	s := newStepped(t)
	c := s.cluster
	reqA, reqB := easyRequest(3), easyRequest(3)
	compA, compB := s.compose(reqA), s.compose(reqB)
	if compA == nil || compB == nil {
		t.Fatal("easy requests refused on an empty cluster")
	}
	_, linksB := c.SessionDemands(reqB, compB)

	s.release(reqA, compA)
	s.release(reqA, compA)
	avail, capacity := c.LinkAvailability()
	reserved := make([]float64, len(avail))
	for _, d := range linksB {
		reserved[d.Link] = d.BW
	}
	for i := range avail {
		if math.Abs(avail[i]-(capacity[i]-reserved[i])) > 1e-9 {
			t.Errorf("link %d: %v available of %v with %v reserved by the live session", i, avail[i], capacity[i], reserved[i])
		}
	}

	s.release(reqB, compB)
	avail, capacity = c.LinkAvailability()
	for i := range avail {
		if avail[i] != capacity[i] {
			t.Errorf("link %d: %v available of %v after every release", i, avail[i], capacity[i])
		}
	}
	if err := c.links.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestSustainedChurnConservation runs concurrent compose/release cycles
// and verifies full capacity returns afterwards — the distributed
// equivalent of the ledger conservation property.
func TestSustainedChurnConservation(t *testing.T) {
	c := testCluster(t)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				req := easyRequest((w*7 + i) % c.NumNodes())
				comp, err := c.Compose(req)
				if err != nil {
					continue // contention failures are fine
				}
				c.Release(req, comp)
			}
		}(w)
	}
	wg.Wait()
	if !c.awaitIdle(8 * time.Second) {
		t.Error("capacity leaked under sustained concurrent churn")
	}
}

// TestCoarseViewSteersSelection: after one node's resources are heavily
// committed (and broadcast), subsequent compositions avoid it.
func TestCoarseViewSteersSelection(t *testing.T) {
	c := testCluster(t)

	// Find which node a fresh composition lands on for position 0, then
	// exhaust that node with committed sessions.
	req := easyRequest(1)
	first, err := c.Compose(req)
	if err != nil {
		t.Fatal(err)
	}
	hot := c.ComponentNode(first.Components[0])

	// Saturate the hot node with many sessions through composition so
	// broadcasts fire naturally.
	var held []struct {
		req  *component.Request
		comp *Composition
	}
	held = append(held, struct {
		req  *component.Request
		comp *Composition
	}{req, first})
	for i := 0; i < 12; i++ {
		r := easyRequest((hot + i) % c.NumNodes())
		comp, err := c.Compose(r)
		if err != nil {
			break
		}
		held = append(held, struct {
			req  *component.Request
			comp *Composition
		}{r, comp})
	}

	// New compositions should now mostly steer around the most-loaded
	// nodes; at minimum they must still satisfy all constraints.
	for i := 0; i < 5; i++ {
		r := easyRequest(i)
		comp, err := c.Compose(r)
		if errors.Is(err, ErrNoComposition) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !comp.QoS.Within(r.QoSReq) {
			t.Errorf("steered composition violates QoS")
		}
		c.Release(r, comp)
	}
	for _, h := range held {
		c.Release(h.req, h.comp)
	}
}

// TestHoldsExpire: probes of failed compositions leave transient holds
// behind; after the TTL the capacity must be back.
func TestHoldsExpire(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HoldTTL = 200 * time.Millisecond
	c := virtualCluster(t, cfg)

	// A request that probes successfully per hop but fails at the final
	// QoS evaluation is hard to construct; instead run normal requests
	// and abandon them without release — holds from losing probes and
	// commit state decay by TTL, committed state stays. So: compose,
	// release, and ensure idle after the TTL even though losing probes
	// placed holds on many nodes.
	for i := 0; i < 5; i++ {
		req := easyRequest(i)
		comp, err := c.Compose(req)
		if err != nil {
			continue
		}
		c.Release(req, comp)
	}
	if !c.awaitIdle(5 * time.Second) {
		t.Error("transient holds survived their TTL")
	}
}
