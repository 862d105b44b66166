package runtime

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/component"
	"repro/internal/obs"
	"repro/internal/qos"
)

// findCloseCycler replaces the oldest session of a filled ring with a
// fresh one, the way the benchmark's walk_loaded lane does: 3-5-function
// paths and two-branch DAGs of distinct functions, on a cluster with a
// registry and a quota-carrying tenant. Its requests are built up front.
type findCloseCycler struct {
	c    *Cluster
	reqs []FindRequest
	next int
	ring []SessionID
	head int
}

func newFindCloseCycler(t *testing.T, ring int) *findCloseCycler {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.IPNodes = 800
	cfg.OverlayNodes = 64
	cfg.NumFunctions = 16
	cfg.ComponentsPerNode = 2
	cfg.ProbingRatio = 0.25
	cfg.Registry = obs.NewRegistry()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	c.SetTenantQuota("t0", TenantQuota{MaxSessions: 1 << 20, MaxCPU: 1e9, MaxMemory: 1e9, MaxBandwidthKbps: 1e9})
	rng := rand.New(rand.NewSource(11))
	cy := &findCloseCycler{c: c}
	for i := 0; i < 256; i++ {
		n, dag := 3+rng.Intn(3), rng.Intn(2) == 0
		if dag {
			n = 5
		}
		fns := make([]component.FunctionID, n)
		for j, f := range rng.Perm(cfg.NumFunctions)[:len(fns)] {
			fns[j] = component.FunctionID(f)
		}
		g := component.NewPathGraph(fns)
		if dag {
			if g, err = component.NewBranchGraph(fns[0], fns[1:2], fns[2:4], fns[4]); err != nil {
				t.Fatal(err)
			}
		}
		res := make([]qos.Resources, g.NumPositions())
		for j := range res {
			res[j] = qos.Resources{CPU: 2 + 6*rng.Float64(), Memory: 20 + 40*rng.Float64()}
		}
		cy.reqs = append(cy.reqs, FindRequest{
			Tenant:        "t0",
			Graph:         g,
			QoSReq:        qos.Vector{Delay: 1e5, LossCost: qos.LossCost(0.9)},
			ResReq:        res,
			BandwidthKbps: 20 + 40*rng.Float64(),
		})
	}
	for try := 0; len(cy.ring) < ring; try++ {
		if try > 4*ring {
			t.Fatalf("a ring of %d sessions does not fit the substrate", ring)
		}
		if id, ok := cy.find(t); ok {
			cy.ring = append(cy.ring, id)
		}
	}
	return cy
}

func (cy *findCloseCycler) find(t *testing.T) (SessionID, bool) {
	r := cy.reqs[cy.next]
	cy.next = (cy.next + 1) % len(cy.reqs)
	id, err := cy.c.FindApp(r)
	if errors.Is(err, ErrNoComposition) {
		return 0, false
	}
	if err != nil {
		t.Fatal(err)
	}
	return id, true
}

// cycle composes one request and, when admitted, closes the oldest
// session in its place.
func (cy *findCloseCycler) cycle(t *testing.T) {
	id, ok := cy.find(t)
	if !ok {
		return
	}
	old := cy.ring[cy.head]
	cy.ring[cy.head] = id
	cy.head = (cy.head + 1) % len(cy.ring)
	if err := cy.c.Close(old); err != nil {
		t.Fatal(err)
	}
}

// TestFindAppCloseAllocations bounds what one FindApp + Close allocates
// at the walk_loaded shape, and pins Describe at its one slice. A cycle
// makes 7 allocations, each what an admitted session keeps:
//
//	source                                  allocs
//	FindApp's copy of ResReq                     1
//	the session, its request stored inside      1
//	the walk's Outcome, the winner inside       1
//	the winner's Components and Routes          2
//	the ledger record's node and link shares     2
//
// Close allocates nothing. The cycle took 68 when validation, the walk's
// topological sort and its predecessor lists were each worked out anew
// per request, 32 with one plan per request, built as the request is
// validated, and 12 once the five per-session gauge families became reads
// of the session table at scrape time. The last five went with the
// commit's two demand maps, the session record's two maps, and the
// request and the winning composition as objects of their own. Describe
// took 4 while it grew its slice by appending.
func TestFindAppCloseAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a cluster")
	}
	cy := newFindCloseCycler(t, 100)
	for i := 0; i < 50; i++ {
		cy.cycle(t) // warm the composer pool, scratch, ledger and gauges
	}
	const maxAllocs = 7
	if allocs := testing.AllocsPerRun(200, func() { cy.cycle(t) }); allocs > maxAllocs {
		t.Errorf("one FindApp + Close cycle allocates %.1f, want <= %d", allocs, maxAllocs)
	}
	id := cy.ring[0]
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := cy.c.Describe(id); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("Describe allocates %.1f per call, want 1", allocs)
	}
}
