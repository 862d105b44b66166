package component

import (
	"fmt"
	"math/rand"

	"repro/internal/qos"
)

// PlacementConfig controls how components are deployed onto overlay nodes.
type PlacementConfig struct {
	// NumFunctions is the size of the function catalogue (paper: 80).
	NumFunctions int
	// ComponentsPerNode is how many components each overlay node
	// provides. The paper notes nodes cannot provide every component
	// (security/licensing/hardware constraints); candidate counts per
	// function grow proportionally with node count (§4.2 scalability).
	ComponentsPerNode int
}

// Component QoS is drawn uniformly from ranges "based on real-world
// measurements": processing delay in [minProcDelay, maxProcDelay] ms and
// loss rate in [minLoss, maxLoss]. Security levels are drawn uniformly
// from 1..securityLevels. Typed, so a draw's hi-lo is the difference of
// the float64 bounds.
const (
	minProcDelay, maxProcDelay float64 = 10, 40
	minLoss, maxLoss           float64 = 0.001, 0.01
	securityLevels                     = 3
)

// DefaultPlacementConfig mirrors the paper's setup: 80 functions, one
// component per node.
func DefaultPlacementConfig() PlacementConfig {
	return PlacementConfig{
		NumFunctions:      DefaultNumFunctions,
		ComponentsPerNode: 1,
	}
}

// Catalog records which components are deployed where, indexed both by
// function (for discovery) and by node. It records placement only: which
// nodes are down is the outage schedule's business (discovery hides
// their components). Move migrates a component between nodes (footnote 1
// of the paper: "components can be dynamically migrated among nodes;
// composition operates based on the current component placement"); a
// catalog nobody moves is read-only and safe to share across goroutines.
type Catalog struct {
	components []Component
	byFunction [][]ComponentID
	byNode     [][]ComponentID
}

// Place deploys components across numNodes overlay nodes. Functions are
// assigned round-robin over a node permutation so every function ends up
// with floor/ceil(numNodes*ComponentsPerNode/NumFunctions) candidates —
// matching the paper's "candidate components per function increase
// proportionally" scaling property while avoiding empty functions.
func Place(numNodes int, cfg PlacementConfig, rng *rand.Rand) (*Catalog, error) {
	if numNodes < 1 {
		return nil, fmt.Errorf("component: numNodes %d < 1", numNodes)
	}
	if cfg.NumFunctions < 1 {
		return nil, fmt.Errorf("component: NumFunctions %d < 1", cfg.NumFunctions)
	}
	if cfg.ComponentsPerNode < 1 {
		return nil, fmt.Errorf("component: ComponentsPerNode %d < 1", cfg.ComponentsPerNode)
	}

	total := numNodes * cfg.ComponentsPerNode
	c := &Catalog{
		components: make([]Component, 0, total),
		byFunction: make([][]ComponentID, cfg.NumFunctions),
		byNode:     make([][]ComponentID, numNodes),
	}

	// Shuffle (node, slot) placements, then deal functions round-robin so
	// function coverage is even but geographically random.
	slots := make([]int, total) // slot i lives on node slots[i]
	for i := range slots {
		slots[i] = i / cfg.ComponentsPerNode
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })

	for i, node := range slots {
		f := FunctionID(i % cfg.NumFunctions)
		delay := minProcDelay + rng.Float64()*(maxProcDelay-minProcDelay)
		loss := minLoss + rng.Float64()*(maxLoss-minLoss)
		id := ComponentID(len(c.components))
		c.components = append(c.components, Component{
			ID:       id,
			Node:     node,
			Function: f,
			QoS:      qos.Vector{Delay: delay, LossCost: qos.LossCost(loss)},
			Security: 1 + rng.Intn(securityLevels),
		})
		c.byFunction[f] = append(c.byFunction[f], id)
		c.byNode[node] = append(c.byNode[node], id)
	}
	return c, nil
}

// Move migrates a component to another node, updating the per-node
// indexes. Subsequent compositions operate on the new placement
// (footnote 1).
func (c *Catalog) Move(id ComponentID, node int) error {
	if int(id) < 0 || int(id) >= len(c.components) {
		return fmt.Errorf("component: unknown component %d", id)
	}
	if node < 0 || node >= len(c.byNode) {
		return fmt.Errorf("component: node %d out of range", node)
	}
	comp := &c.components[id]
	if comp.Node == node {
		return nil
	}
	old := c.byNode[comp.Node]
	for i, cid := range old {
		if cid == id {
			c.byNode[comp.Node] = append(old[:i], old[i+1:]...)
			break
		}
	}
	comp.Node = node
	c.byNode[node] = append(c.byNode[node], id)
	return nil
}

// NumComponents returns the number of deployed components.
func (c *Catalog) NumComponents() int { return len(c.components) }

// NumFunctions returns the size of the function catalogue.
func (c *Catalog) NumFunctions() int { return len(c.byFunction) }

// Component returns the component with the given ID.
func (c *Catalog) Component(id ComponentID) Component { return c.components[int(id)] }

// Candidates returns the IDs of components providing function f. The
// returned slice is internal storage; callers must not modify it.
func (c *Catalog) Candidates(f FunctionID) []ComponentID {
	if int(f) < 0 || int(f) >= len(c.byFunction) {
		return nil
	}
	return c.byFunction[f]
}

// OnNode returns the IDs of components hosted on the given overlay node.
func (c *Catalog) OnNode(node int) []ComponentID {
	if node < 0 || node >= len(c.byNode) {
		return nil
	}
	return c.byNode[node]
}
