package dist

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/harness/clock"
	"repro/internal/obs"
)

// steppedCycler runs compose -> release cycles on the dist_stepped
// substrate over a ring of live sessions, the benchmark's steady state.
type steppedCycler struct {
	s    *stepped
	rng  *rand.Rand
	live []steppedSession
	head int
}

type steppedSession struct {
	req  *component.Request
	comp *Composition
}

func newSteppedCycler(t testing.TB, ring int, tr *obs.Tracer) *steppedCycler {
	clk := clock.NewVirtual()
	cfg := steppedConfig(clk)
	cfg.Tracer = tr
	c, err := NewUnstarted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cy := &steppedCycler{s: &stepped{t: t, cluster: c, clk: clk}, rng: rand.New(rand.NewSource(7))}
	for len(cy.live) < ring {
		req := steppedRequest(cy.rng, c.cfg, 0.3)
		if comp := cy.s.compose(req); comp != nil {
			cy.live = append(cy.live, steppedSession{req, comp})
		}
	}
	return cy
}

// cycle composes one request and, when admitted, releases the oldest
// session in its place.
func (cy *steppedCycler) cycle() {
	req := steppedRequest(cy.rng, cy.s.cluster.cfg, 0.3)
	comp := cy.s.compose(req)
	if comp == nil {
		return
	}
	old := cy.live[cy.head]
	cy.live[cy.head] = steppedSession{req, comp}
	cy.head = (cy.head + 1) % len(cy.live)
	cy.s.release(old.req, old.comp)
}

// TestSteppedCycleAllocations bounds what one compose -> release cycle
// allocates. On this request mix a cycle is about 600 steps, 250 of them
// accepted probes, and costs 49 allocations, all per request: its copy,
// plan (built once, as submit validates), walk and hop blocks (64 records,
// doubling), decision, the link ledger's record of the commit, and the
// dozen step-log lines the memo has not seen — none per step, per
// accepted probe, per hold, per sort or per prefix copy. With the link
// demand passed and kept as maps it took 52; validating and planning the
// graph separately took 83; with a fresh line per step and a record per
// probe it was 810; the representation before that took 9 300. The race
// detector adds 3 more, and CI runs this under it: the bound is that count.
func TestSteppedCycleAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the dist_stepped substrate")
	}
	if allocs := steppedCycleAllocs(t, nil); allocs > 52 {
		t.Errorf("one stepped compose -> release cycle allocates %.0f, want <= 52", allocs)
	}
}

// steppedCycleAllocs is what one warm compose -> release cycle allocates.
func steppedCycleAllocs(t *testing.T, tr *obs.Tracer) float64 {
	cy := newSteppedCycler(t, 150, tr)
	for i := 0; i < 50; i++ {
		cy.cycle() // warm the mailboxes, hold tables, kernel scratch and returns spares
	}
	return testing.AllocsPerRun(200, cy.cycle)
}

// TestTracedSteppedCycleAllocations: tracing costs the stepped engine
// nothing per cycle. The cycle above with a live tracer and a subscriber
// attached, so every span, prune, hold and decision event is built and
// delivered, is held to what it allocates untraced.
func TestTracedSteppedCycleAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the dist_stepped substrate")
	}
	untraced := steppedCycleAllocs(t, nil)
	tr := obs.NewLive()
	sub := tr.Subscribe(1 << 16)
	defer sub.Close()
	traced := steppedCycleAllocs(t, tr)
	if sub.Drops() == 0 && len(sub.Drain()) == 0 {
		t.Fatal("the subscriber saw no events")
	}
	t.Logf("%.0f allocations per cycle untraced, %.0f traced", untraced, traced)
	if traced > untraced {
		t.Errorf("a traced stepped cycle allocates %.0f, want <= %.0f (untraced)", traced, untraced)
	}
}

func BenchmarkSteppedCycle(b *testing.B) {
	cy := newSteppedCycler(b, 150, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cy.cycle()
	}
}

// TestUnstartedClusterFootprint: a mailbox costs what it holds, so the
// 65 536-message bound NewUnstarted asks for is not memory. The whole
// dist_stepped substrate — topology, mesh, catalog, 64 nodes — stays
// under 8 MB (it was 71 MB when each mailbox was a buffered channel).
func TestUnstartedClusterFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the dist_stepped substrate")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := NewUnstarted(steppedConfig(clock.NewVirtual()))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if c.cfg.MailboxSize != 1<<16 {
		t.Fatalf("mailbox bound = %d, want %d", c.cfg.MailboxSize, 1<<16)
	}
	if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); retained > 8<<20 {
		t.Errorf("NewUnstarted retains %.1f MB, want < 8", float64(retained)/(1<<20))
	}
	runtime.KeepAlive(c)
}

// TestShutdownJoinsNodeLoops: Shutdown returns only once every node loop
// has returned. It reads the loops off the goroutine stacks, not off the
// goroutine count: a joined goroutine is still counted while it exits. A
// loop that start spawns outside the cluster's WaitGroup is still running
// when Shutdown returns: nearly every run of this test sees it, and CI
// runs it twenty times under the race detector.
func TestShutdownJoinsNodeLoops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Clock = clock.NewVirtual()
	before := nodeLoops()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); nodeLoops() < before+c.NumNodes(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d node loops running, want %d", nodeLoops()-before, c.NumNodes())
		}
	}
	c.Shutdown()
	if after := nodeLoops(); after > before {
		t.Errorf("%d node loops still running after Shutdown", after-before)
	}
}

// nodeLoops counts the goroutines with a node's run loop on their stack.
func nodeLoops() int {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), "dist.(*node).run(")
		}
		buf = make([]byte, 2*len(buf))
	}
}
