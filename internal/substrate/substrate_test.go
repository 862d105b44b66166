package substrate_test

import (
	"math/rand"
	"testing"

	"repro/internal/component"
	"repro/internal/dist"
	"repro/internal/harness/clock"
	"repro/internal/overlay"
	"repro/internal/qos"
	"repro/internal/runtime"
	"repro/internal/substrate"
)

// TestEnginesDrawOneSystem: runtime and dist built from one Config hold
// the system substrate.Build draws from a fresh stream seeded with its
// Seed, link for link and component for component. An engine that drew
// from its stream before the substrate would hold another system, and a
// differential test of the two engines would compare different
// instances.
func TestEnginesDrawOneSystem(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		// The harness bed: 8 stream nodes over a 64-node IP graph.
		sys := substrate.Config{
			Seed:              seed,
			IPNodes:           64,
			OverlayNodes:      8,
			NeighborsPerNode:  3,
			NumFunctions:      4,
			ComponentsPerNode: 2,
			NodeCapacity:      qos.Resources{CPU: 100, Memory: 1000},
		}
		rng := rand.New(rand.NewSource(seed))
		mesh, catalog, err := substrate.Build(sys, rng, rng, rng)
		if err != nil {
			t.Fatal(err)
		}

		rcfg := runtime.DefaultConfig()
		rcfg.Config = sys
		rcfg.Clock = clock.NewVirtual()
		rc, err := runtime.NewCluster(rcfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Shutdown()
		dcfg := dist.DefaultConfig()
		dcfg.Config = sys
		dcfg.Clock = clock.NewVirtual()
		dc, err := dist.NewUnstarted(dcfg)
		if err != nil {
			t.Fatal(err)
		}

		for _, engine := range []struct {
			name    string
			mesh    *overlay.Mesh
			catalog *component.Catalog
		}{
			{"runtime", rc.Mesh(), rc.Catalog()},
			{"dist", dc.Mesh(), dc.Catalog()},
		} {
			if got, want := engine.mesh.NumNodes(), mesh.NumNodes(); got != want {
				t.Fatalf("seed %d: %s mesh has %d nodes, want %d", seed, engine.name, got, want)
			}
			if got, want := engine.mesh.NumLinks(), mesh.NumLinks(); got != want {
				t.Fatalf("seed %d: %s mesh has %d links, want %d", seed, engine.name, got, want)
			}
			for id := 0; id < mesh.NumLinks(); id++ {
				if got, want := engine.mesh.Link(id), mesh.Link(id); got != want {
					t.Fatalf("seed %d: %s link %d = %+v, want %+v", seed, engine.name, id, got, want)
				}
			}
			if got, want := engine.catalog.NumComponents(), catalog.NumComponents(); got != want {
				t.Fatalf("seed %d: %s catalog has %d components, want %d", seed, engine.name, got, want)
			}
			for id := 0; id < catalog.NumComponents(); id++ {
				cid := component.ComponentID(id)
				if got, want := engine.catalog.Component(cid), catalog.Component(cid); got != want {
					t.Fatalf("seed %d: %s component %d = %+v, want %+v", seed, engine.name, id, got, want)
				}
			}
		}
	}
}
