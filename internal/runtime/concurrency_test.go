package runtime

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/state"
)

// assertPristine checks that nothing is left of any session: no live
// session, every node and link back at capacity with no hold standing,
// every tenant's books at zero.
func assertPristine(t *testing.T, c *Cluster, tenants ...string) {
	t.Helper()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := c.ActiveSessions(); got != 0 {
		t.Fatalf("%d sessions still live", got)
	}
	if got := c.ledger.ActiveSessions(); got != 0 {
		t.Fatalf("%d allocations still committed on the ledger", got)
	}
	for n := 0; n < c.NumNodes(); n++ {
		want, got := c.NodeCapacity(n), c.ledger.NodeAvailableForAt(c.now(), -1, n)
		if math.Abs(got.CPU-want.CPU) > 1e-6 || math.Abs(got.Memory-want.Memory) > 1e-6 {
			t.Fatalf("node %d has %v available, want capacity %v", n, got, want)
		}
	}
	for k := 0; k < c.NumLinks(); k++ {
		if want, got := c.mesh.Link(k).Capacity, c.ledger.LinkAvailable(k); math.Abs(got-want) > 1e-6 {
			t.Fatalf("link %d has %v available, want %v", k, got, want)
		}
	}
	for _, tenant := range tenants {
		u := c.TenantUsageFor(tenant)
		if u.Sessions != 0 || math.Abs(u.CPU) > 1e-9 || math.Abs(u.Memory) > 1e-9 || math.Abs(u.BandwidthKbps) > 1e-9 {
			t.Fatalf("tenant %q usage %+v, want zero", tenant, u)
		}
	}
}

// contendedCluster is a substrate a handful of concurrent callers fill:
// 16 nodes, 8 functions, every request wanting a third of a node.
func contendedCluster(t *testing.T) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.IPNodes = 256
	cfg.OverlayNodes = 16
	cfg.NumFunctions = 8
	cfg.ProbingRatio = 1
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

func contendedRequest(tenant string, i int) FindRequest {
	f := component.FunctionID(i % 7)
	return FindRequest{
		Tenant:        tenant,
		Graph:         component.NewPathGraph([]component.FunctionID{f, f + 1}),
		QoSReq:        qos.Vector{Delay: 100000, LossCost: qos.LossCost(0.9)},
		ResReq:        []qos.Resources{{CPU: 30, Memory: 300}, {CPU: 30, Memory: 300}},
		BandwidthKbps: 200,
	}
}

// TestConcurrentCallersFindDescribeClose is the concurrency model under
// load (run under -race in CI): six callers compose, describe and close
// on a substrate with room for a few more sessions, against session
// quotas one short of full, while the invariants are audited from the
// side. Whatever the interleaving, no quota is exceeded, the ledger
// stays sound, and closing everything returns ledger and quota books to
// where they began.
func TestConcurrentCallersFindDescribeClose(t *testing.T) {
	c := contendedCluster(t)
	tenants := []string{"t0", "t1"}
	const sessionCap = 4
	// Background load leaves every node room for one component, and each
	// tenant starts one session short of its cap: a caller alone already
	// meets its quota on its second request, and four callers more than
	// fill the substrate.
	background := make([]state.NodeShare, c.NumNodes())
	for n := range background {
		background[n] = state.NodeShare{ID: n, Amount: qos.Resources{CPU: 60, Memory: 600}}
	}
	if err := c.InjectLoad(-1, background); err != nil {
		t.Fatal(err)
	}
	var standing []SessionID
	for i, tenant := range tenants {
		c.SetTenantQuota(tenant, TenantQuota{MaxSessions: sessionCap})
		for k := 0; k < sessionCap-1; k++ {
			id, err := c.FindApp(contendedRequest(tenant, 2*k+i))
			if err != nil {
				t.Fatal(err)
			}
			standing = append(standing, id)
		}
	}

	const callers, cycles = 6, 40
	var admitted, capacityRefused, quotaRefused atomic.Int64
	done := make(chan struct{})
	audited := make(chan error, 1)
	go func() {
		for {
			select {
			case <-done:
				audited <- nil
				return
			default:
			}
			if err := c.CheckInvariants(); err != nil {
				audited <- err
				return
			}
			for _, tenant := range tenants {
				if u := c.TenantUsageFor(tenant); u.Sessions > sessionCap {
					audited <- fmt.Errorf("tenant %q holds %d sessions past its cap %d", tenant, u.Sessions, sessionCap)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var ring []SessionID
			for i := 0; i < cycles; i++ {
				id, err := c.FindApp(contendedRequest(tenants[w%2], w+i))
				switch {
				case err == nil:
					admitted.Add(1)
					if desc, derr := c.Describe(id); derr != nil || len(desc.Components) != 2 {
						t.Errorf("describe %d: %v (%d components)", id, derr, len(desc.Components))
					}
					ring = append(ring, id)
				case errors.Is(err, ErrNoComposition):
					capacityRefused.Add(1)
				case errors.Is(err, ErrQuotaExceeded):
					quotaRefused.Add(1)
				default:
					t.Errorf("caller %d cycle %d: %v", w, i, err)
				}
				// Hold a couple of sessions so the substrate and the
				// quotas stay near full.
				if len(ring) > 2 || (err != nil && len(ring) > 0) {
					if cerr := c.Close(ring[0]); cerr != nil {
						t.Errorf("close %d: %v", ring[0], cerr)
					}
					ring = ring[1:]
				}
			}
			for _, id := range ring {
				if cerr := c.Close(id); cerr != nil {
					t.Errorf("close %d: %v", id, cerr)
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	if err := <-audited; err != nil {
		t.Fatal(err)
	}
	t.Logf("admitted %d, refused %d for capacity and %d for quota", admitted.Load(), capacityRefused.Load(), quotaRefused.Load())
	if admitted.Load() == 0 || capacityRefused.Load() == 0 || quotaRefused.Load() == 0 {
		t.Fatal("the callers met no contention")
	}
	for _, id := range standing {
		if err := c.Close(id); err != nil {
			t.Fatal(err)
		}
	}
	c.ReleaseLoad(-1)
	assertPristine(t, c, tenants...)
}

// TestShutdownRacesInflightFinds shuts the cluster down while callers
// are mid-walk: a find that commits after Shutdown swept the session
// table must give its allocation and its quota charge back and report
// the shutdown, not leave a session nobody will ever close.
func TestShutdownRacesInflightFinds(t *testing.T) {
	for round := 0; round < 8; round++ {
		c := contendedCluster(t)
		const callers = 4
		started := make(chan struct{}, callers)
		var wg sync.WaitGroup
		for w := 0; w < callers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				started <- struct{}{}
				for i := 0; ; i++ {
					_, err := c.FindApp(contendedRequest("t0", w+i))
					if err != nil && !errors.Is(err, ErrNoComposition) {
						if !errors.Is(err, errShutDown) {
							t.Errorf("caller %d: %v", w, err)
						}
						return
					}
				}
			}(w)
		}
		for w := 0; w < callers; w++ {
			<-started
		}
		c.Shutdown()
		wg.Wait()
		assertPristine(t, c, "t0")
	}
}

// TestRecomposeConcurrentWithFinds migrates live sessions while other
// goroutines compose and close, and one more closes and re-admits the
// very sessions being migrated: Recompose walks on a composer of the
// pool, never on one a FindApp is using (a data race before the pool),
// and a Close that lands anywhere in its walk leaves nothing behind.
func TestRecomposeConcurrentWithFinds(t *testing.T) {
	c := contendedCluster(t)
	var held [4]atomic.Int64
	for i := range held {
		id, err := c.FindApp(contendedRequest("held", i))
		if err != nil {
			t.Fatal(err)
		}
		held[i].Store(int64(id))
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// Churns the first two held sessions; the other two stay, so flips
		// keep happening however the goroutines are scheduled.
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			k := i % 2
			if id := SessionID(held[k].Swap(0)); id != 0 {
				if err := c.Close(id); err != nil {
					t.Errorf("close held %d: %v", id, err)
					return
				}
			}
			id, err := c.FindApp(contendedRequest("held", k))
			switch {
			case err == nil:
				held[k].Store(int64(id))
			case !errors.Is(err, ErrNoComposition):
				t.Errorf("re-admit held %d: %v", k, err)
				return
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				id, err := c.FindApp(contendedRequest("churn", w+i))
				if err == nil {
					err = c.Close(id)
				}
				if err != nil && !errors.Is(err, ErrNoComposition) {
					t.Errorf("churn caller %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	// Forty recomposes, and more while none has flipped: under the churn a
	// run of them can all find nothing within the admission bound.
	migrated, closed := 0, 0
	for i := 0; i < 40 || (migrated == 0 && i < 400); i++ {
		err := c.Recompose(SessionID(held[i%len(held)].Load()))
		switch {
		case err == nil:
			migrated++
		case errors.Is(err, ErrUnknownSession):
			closed++
		case errors.Is(err, ErrNoBetterComposition):
		default:
			t.Errorf("recompose: %v", err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	t.Logf("%d flips, %d sessions closed under their recompose", migrated, closed)
	if migrated == 0 {
		t.Fatal("no re-composition ever flipped")
	}
	for i := range held {
		if id := SessionID(held[i].Load()); id != 0 {
			if err := c.Close(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	assertPristine(t, c, "held", "churn")
}

// closeHook is a tracer sink that, once armed, closes session id from
// inside the engine — synchronously, on the goroutine that emits — the
// first time it sees an event of type at.
type closeHook struct {
	c     *Cluster
	at    obs.EventType
	id    SessionID
	armed atomic.Bool
	fired bool
	err   error
}

func (h *closeHook) Emit(e obs.Event) {
	if e.Type == h.at && h.armed.CompareAndSwap(true, false) {
		h.fired = true
		h.err = h.c.Close(h.id)
	}
}

// TestCloseLandsInsideRecompose closes a session from inside its own
// Recompose: at the walk's first hold, after which the flip must be
// refused and the probe's holds go, and at the flip itself, after which
// Recompose must give the new allocation back. Either way Recompose
// reports the session unknown and nothing of it is left. With the walk
// under Cluster.mu the hook deadlocks.
func TestCloseLandsInsideRecompose(t *testing.T) {
	for _, at := range []obs.EventType{obs.EventHoldAcquired, obs.EventSessionMigrated} {
		t.Run(string(at), func(t *testing.T) {
			hook := &closeHook{at: at}
			cfg := DefaultConfig()
			cfg.IPNodes = 256
			cfg.OverlayNodes = 32
			cfg.NumFunctions = 8
			cfg.Tracer = obs.New(hook)
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Shutdown)
			hook.c = c
			qosReq, resReq, bw := easyArgs(3)
			id, err := c.Find(component.NewPathGraph([]component.FunctionID{0, 1, 2}), qosReq, resReq, bw)
			if err != nil {
				t.Fatal(err)
			}
			hook.id = id
			hook.armed.Store(true)
			err = c.Recompose(id)
			if !hook.fired {
				t.Fatalf("no %s event inside the recompose", at)
			}
			if hook.err != nil {
				t.Fatalf("close inside the recompose: %v", hook.err)
			}
			if !errors.Is(err, ErrUnknownSession) {
				t.Fatalf("recompose of a session closed under it: %v, want ErrUnknownSession", err)
			}
			assertPristine(t, c)
		})
	}
}

// TestSingleCallerSequenceGolden pins what one caller gets from a fixed
// seed — session IDs, drawn clients, compositions, phi to the bit, and
// which requests a binding quota or a full substrate refused — to
// testdata/findapp_sequence_golden.txt, written at the commit before
// FindApp left Cluster.mu. Moving the walk out of the lock, the composer
// pool, the global-state replica, the mesh route cache and the hold
// marks must not change a single caller's decisions. Regenerate (only
// for a deliberate behaviour change) with ACP_WRITE_RUNTIME_GOLDEN=1.
func TestSingleCallerSequenceGolden(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.IPNodes = 256
	cfg.OverlayNodes = 24
	cfg.NumFunctions = 8
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	c.SetTenantQuota("capped", TenantQuota{MaxSessions: 4})

	rng := rand.New(rand.NewSource(99))
	var b strings.Builder
	var live []SessionID
	for i := 0; i < 120; i++ {
		n := 2 + rng.Intn(3)
		fns := make([]component.FunctionID, n)
		res := make([]qos.Resources, n)
		for pos := range fns {
			fns[pos] = component.FunctionID(rng.Intn(cfg.NumFunctions))
			cpu := float64(10 + rng.Intn(25))
			res[pos] = qos.Resources{CPU: cpu, Memory: 10 * cpu}
		}
		graph := component.NewPathGraph(fns)
		if n == 4 && i%2 == 0 {
			if graph, err = component.NewBranchGraph(fns[0], fns[1:2], fns[2:3], fns[3]); err != nil {
				t.Fatal(err)
			}
		}
		id, err := c.FindApp(FindRequest{
			Tenant:        []string{"", "capped", "free"}[i%3],
			Graph:         graph,
			QoSReq:        qos.Vector{Delay: 100000, LossCost: qos.LossCost(0.9)},
			ResReq:        res,
			BandwidthKbps: float64(50 + 50*rng.Intn(4)),
		})
		switch {
		case err == nil:
			s := c.sessions[id]
			fmt.Fprintf(&b, "%d: session %d request %d client %d components %v phi %v\n",
				i, id, s.request.ID, s.request.Client, s.comp.Components, s.comp.Phi)
			live = append(live, id)
		case errors.Is(err, ErrQuotaExceeded):
			fmt.Fprintf(&b, "%d: quota\n", i)
		case errors.Is(err, ErrNoComposition):
			fmt.Fprintf(&b, "%d: no composition\n", i)
		default:
			t.Fatalf("request %d: %v", i, err)
		}
		if i%5 == 4 && len(live) > 0 {
			if err := c.Close(live[0]); err != nil {
				t.Fatal(err)
			}
			live = live[1:]
		}
	}
	got := b.String()
	for _, outcome := range []string{"session", "quota", "no composition"} {
		if !strings.Contains(got, outcome) {
			t.Fatalf("the sequence never produced a %q outcome", outcome)
		}
	}

	path := filepath.Join("testdata", "findapp_sequence_golden.txt")
	if os.Getenv("ACP_WRITE_RUNTIME_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gotLines {
			if i >= len(wantLines) || gotLines[i] != wantLines[i] {
				t.Fatalf("single-caller decisions moved at line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[min(i, len(wantLines)-1)])
			}
		}
		t.Fatalf("single-caller sequence is %d lines, golden has %d", len(gotLines), len(wantLines))
	}
}

// TestRecomposeKeepsTenantAndWeight is the regression test for
// re-compositions dropping the session's tenant and phi weight: under
// PhiWeighted the re-probe was scored with weight 1 against a bound
// taken with the real weight, so a weight-4 session accepted
// compositions four times worse than admitted and a weight-0.25 session
// could never migrate at all.
func TestRecomposeKeepsTenantAndWeight(t *testing.T) {
	for _, weight := range []float64{4, 0.25} {
		cfg := DefaultConfig()
		cfg.IPNodes = 256
		cfg.OverlayNodes = 32
		cfg.NumFunctions = 8
		cfg.Phi = core.PhiWeighted
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Shutdown)
		qosReq, resReq, bw := easyArgs(3)
		id, err := c.FindApp(FindRequest{
			Tenant:        "acme",
			Weight:        weight,
			Graph:         component.NewPathGraph([]component.FunctionID{0, 1, 2}),
			QoSReq:        qosReq,
			ResReq:        resReq,
			BandwidthKbps: bw,
		})
		if err != nil {
			t.Fatal(err)
		}
		admitted, err := c.Describe(id)
		if err != nil {
			t.Fatal(err)
		}
		// Nothing else runs: the re-probe sees the admission-time state
		// (its own allocation credited back) and must land on the same phi.
		if err := c.Recompose(id); err != nil {
			t.Fatalf("weight %v: recompose on an idle cluster: %v", weight, err)
		}
		flipped, err := c.Describe(id)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(flipped.Phi-admitted.Phi) > 1e-9*admitted.Phi {
			t.Errorf("weight %v: phi %v after the flip, %v at admission: the re-probe was scored with another weight", weight, flipped.Phi, admitted.Phi)
		}
		s := c.sessions[id]
		if s.request.Tenant != "acme" || s.request.Weight != weight {
			t.Errorf("weight %v: session request carries tenant %q weight %v after the flip", weight, s.request.Tenant, s.request.Weight)
		}
	}
}
