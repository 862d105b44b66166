package overlay

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/topology"
)

func benchMesh(b *testing.B, overlayNodes int) *Mesh {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	tcfg := topology.DefaultConfig()
	tcfg.Nodes = 1600
	g, err := topology.Generate(tcfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	ocfg := DefaultConfig()
	ocfg.Nodes = overlayNodes
	m, err := Build(g, ocfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkRouteBetween measures the virtual-link lookup every probe hop
// performs: one read of the table Build laid out.
func BenchmarkRouteBetween(b *testing.B) {
	m := benchMesh(b, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := i % m.NumNodes()
		c := (i * 31) % m.NumNodes()
		if _, ok := m.RouteBetween(a, c); !ok {
			b.Fatal("no route")
		}
	}
}

// BenchmarkBuild measures full mesh construction on the paper's 3200-node
// IP graph, at the overlay sizes of the repository benchmark's workloads
// (N = 64 dist_stepped, 128 walk_loaded, 256 the two wire workloads) and
// at Figure 7's largest system (N = 600).
func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := topology.Generate(topology.DefaultConfig(), rng)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{64, 128, 256, 600} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Nodes = n
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(g, cfg, rand.New(rand.NewSource(2))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBuildAllocs bounds the allocations of one build (800 IP nodes,
// N=64): the shortest-path runs box nothing and reuse one tree per
// worker, and the routes are laid out in one table and one arena, so what
// is left is the mesh itself (measured 363 on one worker). One more worker
// costs its goroutines and its own tree, distances and heap: measured 13-16
// more at two workers, 24-28 under the race detector, bounded at 40. One
// allocation per source, let alone per route (4032 of them), fails it on
// either count.
func TestBuildAllocs(t *testing.T) {
	tcfg := topology.DefaultConfig()
	tcfg.Nodes = 800
	g, err := topology.Generate(tcfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Nodes = 64
	allocs := func(workers int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := build(g, cfg, rand.New(rand.NewSource(2)), workers); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, two := allocs(1), allocs(2)
	if one > 380 {
		t.Errorf("build allocates %.0f times, want <= 380", one)
	}
	if two-one > 40 {
		t.Errorf("a second worker adds %.0f allocations, want <= 40", two-one)
	}
	t.Logf("build allocates %.0f times on one worker, %.0f on two", one, two)
}
