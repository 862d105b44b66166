package overlay

import (
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
// performs: the mesh's route cache once warm, path reconstruction for
// the first b.N up to N*N distinct pairs.
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

// BenchmarkBuild measures full mesh construction at the paper's N=400.
func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tcfg := topology.DefaultConfig()
	tcfg.Nodes = 1600
	g, err := topology.Generate(tcfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, cfg, rand.New(rand.NewSource(2))); err != nil {
			b.Fatal(err)
		}
	}
}
