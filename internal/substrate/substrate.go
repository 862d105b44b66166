// Package substrate draws the system every engine composes on (§4.1):
// a power-law IP graph, an overlay mesh of stream processing nodes over
// it, and components placed on those nodes. runtime, dist, experiment
// and cmd/acptopo all build through Build or Network, so one Config and
// the same streams give the same system everywhere.
package substrate

import (
	"math/rand"

	"repro/internal/component"
	"repro/internal/overlay"
	"repro/internal/qos"
	"repro/internal/topology"
)

// Config sizes the system.
type Config struct {
	// Seed seeds the streams the builder passes to Build: runtime and
	// dist draw every stage from one stream, experiment derives one seed
	// per stage.
	Seed int64
	// IPNodes is the IP-layer power-law graph size (paper: 3200).
	IPNodes int
	// OverlayNodes is N, the stream processing node count (paper:
	// 200-600).
	OverlayNodes int
	// NeighborsPerNode is the overlay mesh degree.
	NeighborsPerNode int
	// NumFunctions and ComponentsPerNode control the deployment and so
	// the candidate density.
	NumFunctions      int
	ComponentsPerNode int
	// NodeCapacity is each stream node's end-system resource capacity.
	NodeCapacity qos.Resources
}

// Network draws the IP graph from graphRng and the overlay mesh over it
// from meshRng. It places nothing.
func Network(cfg Config, graphRng, meshRng *rand.Rand) (*topology.Graph, *overlay.Mesh, error) {
	tcfg := topology.DefaultConfig()
	tcfg.Nodes = cfg.IPNodes
	graph, err := topology.Generate(tcfg, graphRng)
	if err != nil {
		return nil, nil, err
	}
	ocfg := overlay.DefaultConfig()
	ocfg.Nodes = cfg.OverlayNodes
	ocfg.NeighborsPerNode = cfg.NeighborsPerNode
	mesh, err := overlay.Build(graph, ocfg, meshRng)
	if err != nil {
		return nil, nil, err
	}
	return graph, mesh, nil
}

// Build draws the network, then places components on its nodes from
// placeRng. Passing one stream three times draws the stages in turn
// from it.
func Build(cfg Config, graphRng, meshRng, placeRng *rand.Rand) (*overlay.Mesh, *component.Catalog, error) {
	_, mesh, err := Network(cfg, graphRng, meshRng)
	if err != nil {
		return nil, nil, err
	}
	pcfg := component.DefaultPlacementConfig()
	pcfg.NumFunctions = cfg.NumFunctions
	pcfg.ComponentsPerNode = cfg.ComponentsPerNode
	catalog, err := component.Place(mesh.NumNodes(), pcfg, placeRng)
	if err != nil {
		return nil, nil, err
	}
	return mesh, catalog, nil
}
