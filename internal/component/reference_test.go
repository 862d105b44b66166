package component

import "fmt"

// refValidate is Graph.Validate as it was before Plan.Build took it over:
// a map for duplicate edges, a topological sort of its own, boundary scans
// for sources and sinks, and an explicit weak-connectivity search.
// FuzzGraphValidate holds Build to it: the same verdict, the same error
// text, and an Order equal to refTopoOrder's. Predecessors is unchanged
// and serves as its own reference.
func refValidate(g *Graph) error {
	n := g.NumPositions()
	if n == 0 {
		return fmt.Errorf("component: graph has no functions")
	}
	seen := make(map[Edge]bool, len(g.Edges))
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("component: edge %v out of range", e)
		}
		if e.From == e.To {
			return fmt.Errorf("component: self-loop at position %d", e.From)
		}
		if seen[e] {
			return fmt.Errorf("component: duplicate edge %v", e)
		}
		seen[e] = true
	}
	if _, err := refTopoOrder(g); err != nil {
		return err
	}
	if n > 1 {
		if src := refBoundary(g, func(e Edge) int { return e.To }); len(src) != 1 {
			return fmt.Errorf("component: graph has %d sources, want 1", len(src))
		}
		if snk := refBoundary(g, func(e Edge) int { return e.From }); len(snk) != 1 {
			return fmt.Errorf("component: graph has %d sinks, want 1", len(snk))
		}
		if !refWeaklyConnected(g) {
			return fmt.Errorf("component: graph is not connected")
		}
	}
	return nil
}

// refBoundary lists the positions no edge picks: the sources when pick
// is the edge's head, the sinks when it is the tail.
func refBoundary(g *Graph, pick func(Edge) int) []int {
	has := make([]bool, g.NumPositions())
	for _, e := range g.Edges {
		has[pick(e)] = true
	}
	var out []int
	for p, h := range has {
		if !h {
			out = append(out, p)
		}
	}
	return out
}

func refWeaklyConnected(g *Graph) bool {
	n := g.NumPositions()
	adj := make([][]int, n)
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

// refTopoOrder is Kahn's algorithm with a separate FIFO queue and
// successors from Graph.Successors.
func refTopoOrder(g *Graph) ([]int, error) {
	n := g.NumPositions()
	indeg := make([]int, n)
	for _, e := range g.Edges {
		indeg[e.To]++
	}
	var queue []int
	for p := 0; p < n; p++ {
		if indeg[p] == 0 {
			queue = append(queue, p)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		order = append(order, p)
		for _, s := range g.Successors(p) {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("component: graph has a cycle")
	}
	return order, nil
}
