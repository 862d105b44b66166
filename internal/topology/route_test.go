package topology

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// heapRoute is Route as it ran before the bucket queue, kept as its
// reference: Dijkstra on MinHeap (container/heap's pop order), stale
// entries skipped, returning once every target has been popped.
func (g *Graph) heapRoute(src int, targets []int) *PathTree {
	n := g.NumNodes()
	t := &PathTree{src: src, dist: make([]float64, n), parent: make([]int, n), edge: make([]int32, n), pending: make([]bool, n)}
	for i := range t.dist {
		t.dist[i] = math.Inf(1)
		t.parent[i] = -1
	}
	left := 0
	for _, v := range targets {
		if !t.pending[v] {
			t.pending[v] = true
			left++
		}
	}
	t.dist[src] = 0
	var h MinHeap
	h.Push(src, 0)
	for h.Len() > 0 {
		u, du := h.Pop()
		if du > t.dist[u] {
			continue
		}
		if t.pending[u] {
			t.pending[u] = false
			if left--; left == 0 {
				return t
			}
		}
		for i, e := range g.adj[u] {
			if d := du + e.Delay; d < t.dist[e.To] {
				t.dist[e.To] = d
				t.parent[e.To] = u
				t.edge[e.To] = int32(i)
				h.Push(e.To, d)
			}
		}
	}
	for _, v := range targets {
		t.pending[v] = false
	}
	return t
}

// routeMatchesHeap runs Route into tree and heapRoute from src and fails t
// unless they agree bit for bit at every target, or at every node when
// targets is empty.
func routeMatchesHeap(t *testing.T, g *Graph, tree *PathTree, src int, targets []int) {
	t.Helper()
	g.Route(tree, src, targets)
	want := g.heapRoute(src, targets)
	if len(targets) == 0 {
		targets = make([]int, g.NumNodes())
		for v := range targets {
			targets[v] = v
		}
	}
	sameOnTargets(t, g, tree, want, targets)
}

// TestRouteMatchesHeapReference: on generated graphs the bucket queue
// settles every target at the heap's distance, parent, path and
// PathMetrics, bit for bit, on one tree reused for every run. The default
// delays leave the ring 4 buckets to spare. The tight graphs relink an
// 800-node graph with delays from [1, 2^k − 0.5), so w = 1 and the queue
// spans up to 2^k + 1 buckets: a ring sized ⌊max/w⌋ + 1 would round to
// 2^k, one short.
func TestRouteMatchesHeapReference(t *testing.T) {
	type graphAt struct {
		maxDelay float64 // 0: the generated delays
		nodes    int
	}
	var cases []graphAt
	for _, nodes := range []int{300, 800, 3200} {
		cases = append(cases, graphAt{nodes: nodes})
	}
	for k := 2; k <= 5; k++ {
		cases = append(cases, graphAt{maxDelay: math.Ldexp(1, k) - 0.5, nodes: 800})
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			g, err := Generate(Config{Nodes: c.nodes}, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			if c.maxDelay > 0 {
				g = relinked(g, c.maxDelay, rng)
			}
			var tree PathTree
			for run := 0; run < 24; run++ {
				targets := make([]int, rng.Intn(10)) // none: a run to exhaustion
				for j := range targets {
					targets[j] = rng.Intn(c.nodes)
				}
				routeMatchesHeap(t, g, &tree, rng.Intn(c.nodes), targets)
			}
		}
	}
}

// relinked copies g's links into a new graph through addLink, each with
// a delay drawn from [1, maxDelay).
func relinked(g *Graph, maxDelay float64, rng *rand.Rand) *Graph {
	out := &Graph{adj: make([][]Edge, g.NumNodes())}
	for v := range g.adj {
		for _, e := range g.adj[v] {
			if e.To > v {
				out.addLink(v, e.To, 1+rng.Float64()*(maxDelay-1), e.Bandwidth)
			}
		}
	}
	return out
}

// FuzzRouteMatchesHeap holds Route to heapRoute on small graphs whose
// links the input picks: edges[0] sets the node count and each later pair
// of bytes names a link's ends, so links repeat, loop back and leave
// islands. Delays are continuous draws from seed in [0.1, 0.2 + spread]:
// distinct and positive, up to a few thousand buckets of ring. Every node
// is a source once, with targets drawn from seed, on one reused tree.
// Seeds under testdata/fuzz/FuzzRouteMatchesHeap: a line of ten, two
// islands, parallel links and self-loops, a dense graph of twelve, and a
// line of thirty with chords whose widest spread wraps the ring many times.
func FuzzRouteMatchesHeap(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, spread uint8, edges []byte) {
		if len(edges) == 0 {
			return
		}
		n := 2 + int(edges[0])%30
		g := &Graph{adj: make([][]Edge, n)}
		rng := rand.New(rand.NewSource(seed))
		for i := 1; i+1 < len(edges); i += 2 {
			delay := 0.1 + rng.Float64()*(0.1+float64(spread))
			g.addLink(int(edges[i])%n, int(edges[i+1])%n, delay, 1+rng.Float64())
		}
		var tree PathTree
		for src := 0; src < n; src++ {
			targets := make([]int, rng.Intn(4))
			for j := range targets {
				targets[j] = rng.Intn(n)
			}
			routeMatchesHeap(t, g, &tree, src, targets)
		}
	})
}

// TestAddLinkRejectsBadDelay: a delay that is not finite and positive
// panics with the link named, before the graph changes.
func TestAddLinkRejectsBadDelay(t *testing.T) {
	for _, delay := range []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		g := &Graph{adj: make([][]Edge, 3)}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "link 1-2") {
					t.Errorf("addLink(1, 2, %v) panicked with %q, want the link named", delay, msg)
				}
			}()
			g.addLink(1, 2, delay, 100)
		}()
		if g.NumLinks() != 0 || g.minDelay != 0 || g.maxDelay != 0 {
			t.Errorf("addLink(1, 2, %v) changed the graph", delay)
		}
	}
}
