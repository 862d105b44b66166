package server

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runtime"
)

// wireCycler drives compose → commit → teardown over loopback at the
// benchmark's wire_churn shape: 2-function paths, probing ratio 0.1,
// registries on the cluster and the server, and a tenant whose quota
// is set but never binds. Its requests are built up front.
type wireCycler struct {
	cl   *Client
	reqs []Request
	next int
}

func newWireCycler(t *testing.T) *wireCycler {
	t.Helper()
	cfg := runtime.DefaultConfig()
	cfg.IPNodes = 128
	cfg.OverlayNodes = 24
	cfg.NeighborsPerNode = 4
	cfg.NumFunctions = 8
	cfg.ComponentsPerNode = 3
	cfg.ProbingRatio = 0.1
	cfg.Registry = obs.NewRegistry()
	c, err := runtime.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	c.SetTenantQuota("t0", runtime.TenantQuota{MaxSessions: 1 << 20, MaxCPU: 1e9, MaxMemory: 1e9, MaxBandwidthKbps: 1e9})
	// The reaper would scan in the middle of a measured cycle.
	s := testServer(t, c, func(cfg *Config) { cfg.ReapInterval = time.Hour })
	cy := &wireCycler{cl: dialHello(t, s, "t0")}
	for f := 0; f < cfg.NumFunctions; f++ {
		req := composeReq()
		req.Functions = []int{f, (f + 3) % cfg.NumFunctions}
		cy.reqs = append(cy.reqs, req)
	}
	return cy
}

// cycle composes the next request, commits and tears it down.
func (cy *wireCycler) cycle(t *testing.T) {
	req := cy.reqs[cy.next]
	cy.next = (cy.next + 1) % len(cy.reqs)
	r, err := cy.cl.Compose(req)
	if err != nil || !r.OK || len(r.Components) != 2 {
		t.Fatalf("compose = %+v, %v", r, err)
	}
	if r, err := cy.cl.Commit(r.Session); err != nil || !r.OK {
		t.Fatalf("commit = %+v, %v", r, err)
	}
	if r, err := cy.cl.Teardown(r.Session); err != nil || !r.OK {
		t.Fatalf("teardown = %+v, %v", r, err)
	}
}

// TestWireCycleAllocations bounds what one wire session costs, client
// and server together, once the connection is warm. A compose →
// commit → teardown cycle makes 12 allocations, each what the session
// keeps or the client reads:
//
//	source                               allocs
//	FindApp+Close                             7
//	the request's path graph                  3
//	the wireSession                           1
//	the client's decoded components           1
//
// The handler builds the request in the connection's scratch and
// renders the reply without copies; before it did, the decoder's
// functions, the path and demand slices handed to FindApp, Describe's
// result and the reply's components added 5. A heartbeat round trip
// allocates nothing.
func TestWireCycleAllocations(t *testing.T) {
	cy := newWireCycler(t)
	for i := 0; i < 50; i++ {
		cy.cycle(t) // warm the composer, the ledger, the maps and the scratch
	}
	const maxAllocs = 12
	if allocs := testing.AllocsPerRun(200, func() { cy.cycle(t) }); allocs > maxAllocs {
		t.Errorf("one compose → commit → teardown allocates %.1f, want <= %d", allocs, maxAllocs)
	}

	r, err := cy.cl.Compose(cy.reqs[0])
	if err != nil || !r.OK {
		t.Fatalf("compose = %+v, %v", r, err)
	}
	if r, err := cy.cl.Commit(r.Session); err != nil || !r.OK {
		t.Fatalf("commit = %+v, %v", r, err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if hb, err := cy.cl.Heartbeat(r.Session); err != nil || !hb.OK {
			t.Fatalf("heartbeat = %+v, %v", hb, err)
		}
	}); allocs != 0 {
		t.Errorf("a heartbeat round trip allocates %.1f, want 0", allocs)
	}
}

// TestComposeScratchPerConnection: connections compose at once,
// requests of different lengths, and each reply describes its own
// request. The handler's scratch belongs to its connection; were it
// the server's, the replies would mix and -race would report the
// shared slices.
func TestComposeScratchPerConnection(t *testing.T) {
	c := testCluster(t, nil, nil)
	s := testServer(t, c, nil)

	lengths := []int{1, 4}
	errs := make(chan error, len(lengths))
	for _, n := range lengths {
		cl := dialHello(t, s, "t0")
		req := composeReq()
		req.Functions = req.Functions[:0]
		for i := 0; i < n; i++ {
			req.Functions = append(req.Functions, (n+i)%8)
		}
		req.CPU, req.MemoryMB, req.BandwidthKbps = 0.01, 0.1, 0.1
		go func() {
			errs <- func() error {
				for k := 0; k < 40; k++ {
					r, err := cl.Compose(req)
					if err != nil {
						return err
					}
					if !r.OK {
						return fmt.Errorf("compose %v = %+v", req.Functions, r)
					}
					if len(r.Components) != len(req.Functions) {
						return fmt.Errorf("compose %v answered with %d components: %+v", req.Functions, len(r.Components), r.Components)
					}
					for pos, pc := range r.Components {
						if pc.Position != pos || pc.Function != req.Functions[pos] {
							return fmt.Errorf("compose %v answered %+v at position %d", req.Functions, pc, pos)
						}
					}
					if td, err := cl.Teardown(r.Session); err != nil || !td.OK {
						return fmt.Errorf("teardown = %+v, %v", td, err)
					}
				}
				return nil
			}()
		}()
	}
	for range lengths {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	auditPristine(t, c, "t0")
}
