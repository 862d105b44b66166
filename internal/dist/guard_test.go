package dist

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/component"
	"repro/internal/harness/clock"
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

func newSteppedCycler(t testing.TB, ring int) *steppedCycler {
	clk := clock.NewVirtual()
	c, err := NewUnstarted(steppedConfig(clk))
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
// accepted probes, and costs 53 allocations, all per request: its copy,
// plan (built once, as submit validates), walk and hop blocks (64 records,
// doubling), decision and commit, and the dozen step-log lines the memo
// has not seen — none per step, per accepted probe, per hold, per sort or
// per prefix copy. Validating and planning the graph separately took 83;
// with a fresh line per step and a record per probe it was 810; the
// representation before that took 9 300.
func TestSteppedCycleAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the dist_stepped substrate")
	}
	cy := newSteppedCycler(t, 150)
	for i := 0; i < 50; i++ {
		cy.cycle() // warm the mailboxes, hold tables, kernel scratch and returns spares
	}
	if allocs := testing.AllocsPerRun(200, cy.cycle); allocs > 58 {
		t.Errorf("one stepped compose -> release cycle allocates %.0f, want <= 58", allocs)
	}
}

func BenchmarkSteppedCycle(b *testing.B) {
	cy := newSteppedCycler(b, 150)
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
