package component

import (
	"fmt"
	"math/rand"
)

// The template library of §4.1: templateCount templates, each a path
// or, with probability dagFraction, a two-branch DAG, with minPathLen to
// maxPathLen function nodes per path or branch path.
const (
	templateCount                  = 20
	minPathLen, maxPathLen         = 2, 5
	dagFraction            float64 = 0.3
)

// Library is the set of pre-defined stream processing application
// templates users request instances of.
type Library struct {
	graphs []*Graph
}

// GenerateLibrary builds the template library over numFunctions
// functions. Functions within one template are distinct, drawn uniformly
// from the catalogue.
func GenerateLibrary(numFunctions int, rng *rand.Rand) (*Library, error) {
	// The largest template, a two-branch DAG, needs a source, a sink and
	// maxPathLen-2 internal functions per branch.
	if maxNeeded := 2 + 2*(maxPathLen-2); numFunctions < maxNeeded {
		return nil, fmt.Errorf("component: NumFunctions %d too small for templates needing up to %d distinct functions",
			numFunctions, maxNeeded)
	}

	lib := &Library{graphs: make([]*Graph, 0, templateCount)}
	for i := 0; i < templateCount; i++ {
		g, err := generateTemplate(numFunctions, rng)
		if err != nil {
			return nil, err
		}
		lib.graphs = append(lib.graphs, g)
	}
	return lib, nil
}

func generateTemplate(numFunctions int, rng *rand.Rand) (*Graph, error) {
	pathLen := func() int {
		return minPathLen + rng.Intn(maxPathLen-minPathLen+1)
	}
	if rng.Float64() >= dagFraction {
		fns := drawDistinct(pathLen(), numFunctions, rng)
		return NewPathGraph(fns), nil
	}
	// Two-branch DAG: each branch path (source..sink inclusive) has
	// pathLen() nodes, of which the internal segment has pathLen()-2
	// functions; at least one internal function keeps branches distinct.
	internal1 := maxInt(1, pathLen()-2)
	internal2 := maxInt(1, pathLen()-2)
	fns := drawDistinct(2+internal1+internal2, numFunctions, rng)
	return NewBranchGraph(fns[0], fns[1:1+internal1], fns[1+internal1:1+internal1+internal2], fns[len(fns)-1])
}

func drawDistinct(n, limit int, rng *rand.Rand) []FunctionID {
	perm := rng.Perm(limit)[:n]
	out := make([]FunctionID, n)
	for i, v := range perm {
		out[i] = FunctionID(v)
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Count returns the number of templates in the library.
func (l *Library) Count() int { return len(l.graphs) }

// Graph returns template i. The returned graph is shared; callers must
// treat it as immutable.
func (l *Library) Graph(i int) *Graph { return l.graphs[i] }

// Pick returns a uniformly random template index and its graph.
func (l *Library) Pick(rng *rand.Rand) (int, *Graph) {
	i := rng.Intn(len(l.graphs))
	return i, l.graphs[i]
}
