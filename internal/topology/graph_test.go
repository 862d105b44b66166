package topology

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func testGraph(t *testing.T, nodes int, seed int64) *Graph {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	g, err := Generate(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return g
}

func TestGenerateValidation(t *testing.T) {
	t.Run("too few nodes", func(t *testing.T) {
		if _, err := Generate(Config{Nodes: edgesPerNode}, rand.New(rand.NewSource(1))); err == nil {
			t.Error("Generate accepted invalid config")
		}
	})
}

func TestGenerateConnected(t *testing.T) {
	g := testGraph(t, 500, 1)
	if !g.Connected() {
		t.Error("generated graph is not connected")
	}
}

func TestGenerateNodeAndLinkCounts(t *testing.T) {
	const n = 400
	g := testGraph(t, n, 2)
	if g.NumNodes() != n {
		t.Fatalf("NumNodes = %d, want %d", g.NumNodes(), n)
	}
	// m=2: seed triangle (3 links) + 2 links per remaining node.
	wantLinks := 3 + 2*(n-3)
	if g.NumLinks() != wantLinks {
		t.Errorf("NumLinks = %d, want %d", g.NumLinks(), wantLinks)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g1 := testGraph(t, 200, 7)
	g2 := testGraph(t, 200, 7)
	for v := 0; v < g1.NumNodes(); v++ {
		e1, e2 := g1.Neighbors(v), g2.Neighbors(v)
		if len(e1) != len(e2) {
			t.Fatalf("node %d degree differs: %d vs %d", v, len(e1), len(e2))
		}
		for i := range e1 {
			if e1[i] != e2[i] {
				t.Fatalf("node %d edge %d differs: %+v vs %+v", v, i, e1[i], e2[i])
			}
		}
	}
}

func TestGeneratePowerLawTail(t *testing.T) {
	g := testGraph(t, 3200, 3)
	st := g.Stats()
	if st.Min < 2 {
		t.Errorf("min degree = %d, want >= 2", st.Min)
	}
	// Preferential attachment concentrates degree: the hubs should be an
	// order of magnitude above the mean.
	if float64(st.Max) < 8*st.Mean {
		t.Errorf("max degree %d not heavy-tailed relative to mean %.1f", st.Max, st.Mean)
	}
	if st.PowerLawSlope > -1 {
		t.Errorf("log-log degree slope = %.2f, want clearly negative (power law)", st.PowerLawSlope)
	}
	counts := make([]int, st.Max+1)
	for v := 0; v < g.NumNodes(); v++ {
		counts[g.Degree(v)]++
	}
	if !slices.Equal(st.Counts, counts) {
		t.Errorf("degree histogram %v, want %v", st.Counts, counts)
	}
}

func TestGenerateEdgeAttributesInRange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 300
	g, err := Generate(cfg, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.Neighbors(v) {
			if e.Delay < minDelay || e.Delay > maxDelay {
				t.Fatalf("edge delay %v out of range", e.Delay)
			}
			if e.Bandwidth < minBandwidth || e.Bandwidth > maxBandwidth {
				t.Fatalf("edge bandwidth %v out of range", e.Bandwidth)
			}
		}
	}
}

// edgeBetween returns the first edge from a to b in a's adjacency.
func (g *Graph) edgeBetween(a, b int) (Edge, bool) {
	for _, e := range g.adj[a] {
		if e.To == b {
			return e, true
		}
	}
	return Edge{}, false
}

func TestGenerateSymmetricLinks(t *testing.T) {
	g := testGraph(t, 300, 5)
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.Neighbors(v) {
			back, ok := g.edgeBetween(e.To, v)
			if !ok {
				t.Fatalf("link %d->%d has no mirror", v, e.To)
			}
			if back.Delay != e.Delay || back.Bandwidth != e.Bandwidth {
				t.Fatalf("asymmetric attributes on link %d-%d", v, e.To)
			}
		}
	}
}

func TestShortestPathsSmallWorked(t *testing.T) {
	// Hand-built diamond: 0-1 (delay 1), 0-2 (delay 4), 1-2 (delay 1),
	// 2-3 (delay 1), 1-3 (delay 5).
	g := &Graph{adj: make([][]Edge, 4)}
	g.addLink(0, 1, 1, 100)
	g.addLink(0, 2, 4, 100)
	g.addLink(1, 2, 1, 50)
	g.addLink(2, 3, 1, 200)
	g.addLink(1, 3, 5, 100)

	tree := shortestPaths(g, 0)
	tests := []struct {
		dst      int
		wantDist float64
		wantPath []int
	}{
		{dst: 0, wantDist: 0, wantPath: []int{0}},
		{dst: 1, wantDist: 1, wantPath: []int{0, 1}},
		{dst: 2, wantDist: 2, wantPath: []int{0, 1, 2}},
		{dst: 3, wantDist: 3, wantPath: []int{0, 1, 2, 3}},
	}
	for _, tt := range tests {
		if got := tree.distance(tt.dst); got != tt.wantDist {
			t.Errorf("Distance(%d) = %v, want %v", tt.dst, got, tt.wantDist)
		}
		path := tree.pathTo(tt.dst)
		if len(path) != len(tt.wantPath) {
			t.Fatalf("PathTo(%d) = %v, want %v", tt.dst, path, tt.wantPath)
		}
		for i := range path {
			if path[i] != tt.wantPath[i] {
				t.Fatalf("PathTo(%d) = %v, want %v", tt.dst, path, tt.wantPath)
			}
		}
	}
}

func TestPathMetrics(t *testing.T) {
	g := &Graph{adj: make([][]Edge, 4)}
	g.addLink(0, 1, 1, 100)
	g.addLink(1, 2, 2, 50)
	g.addLink(2, 3, 3, 200)

	tree := shortestPaths(g, 0)
	delay, bw := g.PathMetrics(tree, 3)
	if delay != 6 {
		t.Errorf("delay = %v, want 6", delay)
	}
	if bw != 50 {
		t.Errorf("bottleneck = %v, want 50", bw)
	}

	// Zero-length path: same node.
	delay, bw = g.PathMetrics(tree, 0)
	if delay != 0 || !math.IsInf(bw, 1) {
		t.Errorf("self path = (%v, %v), want (0, +Inf)", delay, bw)
	}
}

func TestPathMetricsUnreachable(t *testing.T) {
	g := &Graph{adj: make([][]Edge, 3)}
	g.addLink(0, 1, 1, 100)
	// Node 2 is isolated.
	tree := shortestPaths(g, 0)
	if d := tree.distance(2); !math.IsInf(d, 1) {
		t.Errorf("Distance to isolated node = %v, want +Inf", d)
	}
	if p := tree.pathTo(2); p != nil {
		t.Errorf("PathTo isolated node = %v, want nil", p)
	}
	delay, bw := g.PathMetrics(tree, 2)
	if !math.IsInf(delay, 1) || bw != 0 {
		t.Errorf("PathMetrics to isolated node = (%v, %v)", delay, bw)
	}
}

// TestShortestPathsOptimality cross-checks Dijkstra against Bellman-Ford
// relaxation on random small graphs.
func TestShortestPathsOptimality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Nodes: 30}
		g, err := Generate(cfg, rng)
		if err != nil {
			return false
		}
		src := rng.Intn(cfg.Nodes)
		tree := shortestPaths(g, src)

		// Bellman-Ford reference.
		dist := make([]float64, cfg.Nodes)
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		dist[src] = 0
		for iter := 0; iter < cfg.Nodes; iter++ {
			for v := 0; v < cfg.Nodes; v++ {
				for _, e := range g.Neighbors(v) {
					if d := dist[v] + e.Delay; d < dist[e.To] {
						dist[e.To] = d
					}
				}
			}
		}
		for v := 0; v < cfg.Nodes; v++ {
			if math.Abs(tree.distance(v)-dist[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPathDelayMatchesDistance: PathMetrics' delay and bottleneck are, bit
// for bit, the path's edge delays added in source-to-destination order and
// the least bandwidth among them, the edges found hop by hop.
func TestPathDelayMatchesDistance(t *testing.T) {
	g := testGraph(t, 200, 11)
	tree := shortestPaths(g, 0)
	for dst := 0; dst < g.NumNodes(); dst++ {
		path := tree.pathTo(dst)
		wantDelay, wantBW := 0.0, math.Inf(1)
		for i := 1; i < len(path); i++ {
			e, ok := g.edgeBetween(path[i-1], path[i])
			if !ok {
				t.Fatalf("path to %d uses a missing edge %d-%d", dst, path[i-1], path[i])
			}
			wantDelay += e.Delay
			wantBW = math.Min(wantBW, e.Bandwidth)
		}
		delay, bw := g.PathMetrics(tree, dst)
		if math.Float64bits(delay) != math.Float64bits(wantDelay) || bw != wantBW {
			t.Errorf("PathMetrics(%d) = (%v, %v), hop by hop (%v, %v)", dst, delay, bw, wantDelay, wantBW)
		}
		if delay != tree.distance(dst) {
			t.Errorf("path delay to %d = %v, distance = %v", dst, delay, tree.distance(dst))
		}
	}
}

// TestMinHeapMatchesContainerHeap: the typed heap pops the same sequence
// as container/heap over the same pushes, ties included.
func TestMinHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h MinHeap
	ref := &refHeap{}
	for round := 0; round < 200; round++ {
		// Few distinct keys, so most pops choose among equal ones.
		for n := rng.Intn(40); n > 0; n-- {
			node, dist := rng.Intn(1000), float64(rng.Intn(8))
			h.Push(node, dist)
			heap.Push(ref, heapItem{node: node, dist: dist})
		}
		for n := rng.Intn(h.Len() + 1); n > 0; n-- {
			node, dist := h.Pop()
			want := heap.Pop(ref).(heapItem)
			if node != want.node || dist != want.dist {
				t.Fatalf("round %d: Pop = (%d, %v), container/heap pops (%d, %v)", round, node, dist, want.node, want.dist)
			}
		}
	}
}

type refHeap []heapItem

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// sameOnTargets fails t unless the early-exit tree and the full run agree,
// bit for bit, on every target's distance, parent, path and PathMetrics.
func sameOnTargets(t *testing.T, g *Graph, early, full *PathTree, targets []int) {
	t.Helper()
	for _, v := range targets {
		if math.Float64bits(early.distance(v)) != math.Float64bits(full.distance(v)) || early.parent[v] != full.parent[v] {
			t.Fatalf("src %d target %d: early (%v, parent %d), full (%v, parent %d)",
				early.src, v, early.distance(v), early.parent[v], full.distance(v), full.parent[v])
		}
		if !reflect.DeepEqual(early.pathTo(v), full.pathTo(v)) {
			t.Fatalf("src %d target %d: early path %v, full path %v", early.src, v, early.pathTo(v), full.pathTo(v))
		}
		ed, eb := g.PathMetrics(early, v)
		fd, fb := g.PathMetrics(full, v)
		if math.Float64bits(ed) != math.Float64bits(fd) || math.Float64bits(eb) != math.Float64bits(fb) {
			t.Fatalf("src %d target %d: early PathMetrics (%v, %v), full (%v, %v)", early.src, v, ed, eb, fd, fb)
		}
	}
	for v, p := range early.pending {
		if p {
			t.Fatalf("src %d: node %d still pending after the run", early.src, v)
		}
	}
}

// TestRouteEarlyExitMatchesFullRun: a run that stops at its last target
// agrees with a run to exhaustion on every target, on one tree reused for
// every run.
func TestRouteEarlyExitMatchesFullRun(t *testing.T) {
	for i, nodes := range []int{300, 800, 1600} {
		g := testGraph(t, nodes, int64(20+i))
		rng := rand.New(rand.NewSource(int64(i)))
		var early PathTree
		for run := 0; run < 40; run++ {
			src := rng.Intn(nodes)
			targets := make([]int, 1+rng.Intn(8))
			for j := range targets {
				targets[j] = rng.Intn(nodes)
			}
			g.Route(&early, src, targets)
			sameOnTargets(t, g, &early, shortestPaths(g, src), targets)
		}
	}
}

// TestRouteStopsAtLastTarget: on the line 0-1-2-3 a run from 0 to 1
// returns before it relaxes 1's edges, so 2 and 3 are never reached.
func TestRouteStopsAtLastTarget(t *testing.T) {
	g := &Graph{adj: make([][]Edge, 4)}
	g.addLink(0, 1, 1, 100)
	g.addLink(1, 2, 1, 100)
	g.addLink(2, 3, 1, 100)
	var tree PathTree
	g.Route(&tree, 0, []int{1})
	if tree.distance(1) != 1 || !math.IsInf(tree.distance(2), 1) || !math.IsInf(tree.distance(3), 1) {
		t.Errorf("distances after a run to 1 = %v, want [0 1 +Inf +Inf]", tree.dist)
	}
}

// TestRouteUnreachableTarget: on two components, a target across them
// costs a run to exhaustion that returns, reports (+Inf, 0) and leaves no
// target pending for the tree's next run.
func TestRouteUnreachableTarget(t *testing.T) {
	g := &Graph{adj: make([][]Edge, 5)}
	g.addLink(0, 1, 1, 100)
	g.addLink(1, 2, 2, 50)
	g.addLink(3, 4, 1, 100)
	var tree PathTree
	targets := []int{2, 4}
	g.Route(&tree, 0, targets)
	if delay, bw := g.PathMetrics(&tree, 4); !math.IsInf(delay, 1) || bw != 0 {
		t.Errorf("PathMetrics to the other component = (%v, %v), want (+Inf, 0)", delay, bw)
	}
	if p := tree.pathTo(4); p != nil {
		t.Errorf("PathTo the other component = %v, want nil", p)
	}
	sameOnTargets(t, g, &tree, shortestPaths(g, 0), targets)

	g.Route(&tree, 3, []int{4})
	sameOnTargets(t, g, &tree, shortestPaths(g, 3), []int{4})
}

// TestRouteDuplicateAndSourceTargets: a target named twice is waited for
// once, and the source as a target is settled by the first pop.
func TestRouteDuplicateAndSourceTargets(t *testing.T) {
	g := testGraph(t, 400, 9)
	var tree PathTree
	cases := [][]int{
		{7, 7, 123, 7},
		{5},
		{5, 5},
		{5, 300, 5},
	}
	for _, targets := range cases {
		g.Route(&tree, 5, targets)
		sameOnTargets(t, g, &tree, shortestPaths(g, 5), targets)
	}
	if delay, bw := g.PathMetrics(&tree, 5); delay != 0 || !math.IsInf(bw, 1) {
		t.Errorf("source as its own target = (%v, %v), want (0, +Inf)", delay, bw)
	}
}

func TestStatsEmptyGraph(t *testing.T) {
	var g Graph
	if st := g.Stats(); !reflect.DeepEqual(st, DegreeStats{}) {
		t.Errorf("Stats of empty graph = %+v", st)
	}
	if !g.Connected() {
		t.Error("empty graph should count as connected")
	}
}

// shortestPaths runs Route from src to exhaustion into a new tree.
func shortestPaths(g *Graph, src int) *PathTree {
	t := &PathTree{}
	g.Route(t, src, nil)
	return t
}

// distance returns the shortest-path delay from the tree's source to dst,
// or +Inf if dst is unreachable.
func (t *PathTree) distance(dst int) float64 { return t.dist[dst] }

// pathTo returns the node sequence from the source to dst inclusive, or
// nil if dst is unreachable.
func (t *PathTree) pathTo(dst int) []int {
	if math.IsInf(t.dist[dst], 1) {
		return nil
	}
	var rev []int
	for v := dst; v != -1; v = t.parent[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
