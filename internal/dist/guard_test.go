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
	cfg.Registry = obs.NewRegistry() // as the benchmark has it: the session gauges are in the count
	c, err := NewUnstarted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cy := &steppedCycler{s: &stepped{t: t, cluster: c, clk: clk}, rng: rand.New(rand.NewSource(7))}
	// An engine that refuses every request must fail here, not hang.
	for tries := 0; len(cy.live) < ring; tries++ {
		if tries == 4*ring {
			t.Fatalf("filling a ring of %d sessions: %d admitted in %d requests", ring, len(cy.live), tries)
		}
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
// allocates, a registry attached as the benchmark has it. On this request
// mix a cycle is about 600 steps, 250 of them accepted probes, and costs 28
// allocations. Each is attributed (2 000 warm cycles at MemProfileRate 1):
//
//	source, per cycle                                                 allocs
//	this test's request: graph, functions, demands, permutation        10.9
//	the request's record: copy, plan storage, walk, first hop block     1
//	  with its 64 records, the deputy's pending state
//	its plan (Plan.Build) 2, reply channel 2, SimHandle 1                 5
//	collect and commit timers, a closure and a timer each                 4
//	decision: components, participants, Composition, link-ledger record   4
//	hop blocks chained past the first, doubling                         2.1
//	step-log arena chunks, and scratch still growing: tombstones,       0.4
//	  commit tables, returns spares, kernel, mailboxes
//
// None is per step, per accepted probe, per hold, per tombstone, per sort
// or per prefix copy; none per step-log line (cut from an arena, one
// allocation per 4 KB chunk) and none per session gauge (read from the
// session table at scrape time). With the gauges stored, the request in
// five pieces and a string per line the memo missed it took 55, 49 without
// a registry. Without one, earlier forms took 52 with the link demand
// passed and kept as maps, 83 validating and planning the graph
// separately, 810 with a fresh line per step and a record per probe, and
// 9 300 before that. The race detector adds 2 more, and CI runs this under
// it: the bound is that count.
func TestSteppedCycleAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the dist_stepped substrate")
	}
	if allocs := steppedCycleAllocs(t, nil); allocs > 30 {
		t.Errorf("one stepped compose -> release cycle allocates %.0f, want <= 30", allocs)
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
	if c.cfg.mailboxSize != 1<<16 {
		t.Fatalf("mailbox bound = %d, want %d", c.cfg.mailboxSize, 1<<16)
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
