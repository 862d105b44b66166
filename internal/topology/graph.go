// Package topology generates and routes over the IP-layer network
// underlying the stream processing overlay.
//
// The paper's simulator uses the degree-based Internet topology generator
// Inet-3.0 to create a 3200-node power-law graph (§4.1). Inet itself is a
// closed C artefact, so this package substitutes a degree-based
// preferential-attachment generator that reproduces the property the
// experiments rely on: a heavy-tailed (power-law) degree distribution with
// heterogeneous path delays and bandwidths. Routing, as in the paper, is
// delay-based shortest path.
package topology

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
)

// Edge is a directed view of an undirected IP link.
type Edge struct {
	// To is the neighbouring node.
	To int
	// Delay is the link's propagation delay in milliseconds.
	Delay float64
	// Bandwidth is the link capacity in kbps.
	Bandwidth float64
}

// Graph is an undirected IP-layer network. Nodes are dense integers
// [0, N). The adjacency representation stores each undirected link as two
// mirrored directed edges with identical delay and bandwidth.
type Graph struct {
	adj [][]Edge
	// minDelay and maxDelay are the least and greatest link delay, which
	// size Route's buckets; both 0 while the graph has no link.
	minDelay, maxDelay float64
}

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumLinks returns the number of undirected links.
func (g *Graph) NumLinks() int {
	total := 0
	for _, edges := range g.adj {
		total += len(edges)
	}
	return total / 2
}

// Neighbors returns the edges leaving node v. The returned slice is the
// graph's internal storage; callers must not modify it.
func (g *Graph) Neighbors(v int) []Edge { return g.adj[v] }

// Degree returns the number of links incident to v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// addLink inserts an undirected link between a and b. It panics on a
// delay that is not finite and positive: Route's buckets rest on it.
func (g *Graph) addLink(a, b int, delay, bandwidth float64) {
	if !(delay > 0) || math.IsInf(delay, 1) {
		panic(fmt.Sprintf("topology: link %d-%d has delay %v, want finite and > 0", a, b, delay))
	}
	if g.minDelay == 0 || delay < g.minDelay {
		g.minDelay = delay
	}
	g.maxDelay = math.Max(g.maxDelay, delay)
	g.adj[a] = append(g.adj[a], Edge{To: b, Delay: delay, Bandwidth: bandwidth})
	g.adj[b] = append(g.adj[b], Edge{To: a, Delay: delay, Bandwidth: bandwidth})
}

// Config controls power-law graph generation.
type Config struct {
	// Nodes is the total node count. The paper uses 3200.
	Nodes int
}

// The fixed substrate parameters: each arriving node creates
// edgesPerNode links toward existing nodes (preferential attachment
// parameter m), with a per-link propagation delay in [minDelay,
// maxDelay] ms and a capacity in [minBandwidth, maxBandwidth] kbps.
// Typed, so a draw's hi-lo is the difference of the float64 bounds.
const (
	edgesPerNode                       = 2
	minDelay, maxDelay         float64 = 1, 10
	minBandwidth, maxBandwidth float64 = 10_000, 100_000 // 10 to 100 Mbps
)

// DefaultConfig mirrors the paper's simulation setup: a 3200-node
// power-law graph with millisecond-scale link delays and access-network
// scale bandwidths.
func DefaultConfig() Config {
	return Config{Nodes: 3200}
}

// Generate builds a connected power-law graph by degree-based preferential
// attachment: each new node links to edgesPerNode distinct existing nodes
// chosen with probability proportional to their current degree. All
// randomness is drawn from rng, so generation is deterministic per seed.
func Generate(cfg Config, rng *rand.Rand) (*Graph, error) {
	const m = edgesPerNode
	if cfg.Nodes < m+1 {
		return nil, fmt.Errorf("topology: Nodes %d must exceed %d", cfg.Nodes, m)
	}

	g := &Graph{adj: make([][]Edge, cfg.Nodes)}
	link := func(a, b int) {
		delay := minDelay + rng.Float64()*(maxDelay-minDelay)
		bw := minBandwidth + rng.Float64()*(maxBandwidth-minBandwidth)
		g.addLink(a, b, delay, bw)
	}

	// Seed clique of m+1 nodes so every attachment target has degree >= m.
	for a := 0; a <= m; a++ {
		for b := a + 1; b <= m; b++ {
			link(a, b)
		}
	}

	// targets holds one entry per edge endpoint, so sampling uniformly
	// from it is degree-proportional sampling.
	targets := make([]int, 0, 2*m*cfg.Nodes)
	for v := 0; v <= m; v++ {
		for range g.adj[v] {
			targets = append(targets, v)
		}
	}

	for v := m + 1; v < cfg.Nodes; v++ {
		chosen := make([]int, 0, m)
		for len(chosen) < m {
			t := targets[rng.Intn(len(targets))]
			if t != v && !contains(chosen, t) {
				chosen = append(chosen, t)
			}
		}
		// Keep the order rng produced them in so generation stays
		// deterministic per seed.
		for _, t := range chosen {
			link(v, t)
			targets = append(targets, v, t)
		}
	}
	return g, nil
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// MinHeap is the Dijkstra priority queue of the overlay's routing (the IP
// graph's runs settle from Route's buckets): a binary min-heap of (node,
// dist) entries. Push and Pop make exactly container/heap's sift steps, so
// entries with equal dist pop in the order they would through it. The
// zero value is an empty heap.
type MinHeap struct{ items []heapItem }

type heapItem struct {
	node int
	dist float64
}

// Len returns the number of queued entries.
func (h *MinHeap) Len() int { return len(h.items) }

// Push queues node at dist: append, then container/heap's up.
func (h *MinHeap) Push(node int, dist float64) {
	h.items = append(h.items, heapItem{node: node, dist: dist})
	s := h.items
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !(s[j].dist < s[i].dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// Pop removes the entry with the least dist: container/heap's swap of the
// root with the last entry, then down over the others.
func (h *MinHeap) Pop() (node int, dist float64) {
	s := h.items
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].dist < s[j].dist {
			j = j2
		}
		if !(s[j].dist < s[i].dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	h.items = s[:n]
	return s[n].node, s[n].dist
}

// PathTree is the result of a single-source shortest-path run. The zero
// value is ready for Route, which reuses its storage run after run.
type PathTree struct {
	src    int
	dist   []float64
	parent []int
	// edge[v] indexes, in parent[v]'s adjacency, the edge that set parent[v].
	edge    []int32
	pending []bool // targets not yet settled; all false between runs
	// Route's ring of buckets, each a list of queued nodes; -1 ends one.
	head, next, prev []int32
}

// link queues v at the front of bucket s.
func (t *PathTree) link(v int32, s int) {
	h := t.head[s]
	t.next[v], t.prev[v] = h, -1
	if h >= 0 {
		t.prev[h] = v
	}
	t.head[s] = v
}

// unlink takes v out of bucket s.
func (t *PathTree) unlink(v int32, s int) {
	p, n := t.prev[v], t.next[v]
	if p >= 0 {
		t.next[p] = n
	} else {
		t.head[s] = n
	}
	if n >= 0 {
		t.prev[n] = p
	}
}

// Route runs Dijkstra from src into t with link delay as the metric, the
// paper's "delay-based shortest path routing algorithm", reusing t's
// storage. It returns once every node of targets has been settled; nil
// targets run to exhaustion. After an early return, other nodes may hold
// tentative values. Nodes settle from a bucket queue (DESIGN.md §2): a
// queued node at dist d sits in bucket ⌊d/w⌋, w the greatest power of two
// at most the least delay, so a relaxation lands past the settling bucket
// and that bucket's nodes are final in any order. The ring spans
// ⌊max/w⌋ + 2 buckets and one more for a sum rounded up onto a multiple of w.
func (g *Graph) Route(t *PathTree, src int, targets []int) {
	n := g.NumNodes()
	if cap(t.dist) < n {
		t.dist, t.parent = make([]float64, n), make([]int, n)
		t.edge, t.pending = make([]int32, n), make([]bool, n)
		t.next, t.prev = make([]int32, n), make([]int32, n)
	}
	t.src = src
	t.dist, t.parent, t.edge, t.pending = t.dist[:n], t.parent[:n], t.edge[:n], t.pending[:n]
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

	_, exp := math.Frexp(g.minDelay)              // w = 2^(exp-1) <= minDelay < 2^exp
	inv := math.Ldexp(1, 1-exp)                   // no links: any w, only src queues
	size := 1 << bits.Len(uint(g.maxDelay*inv)+2) // a power of two >= ⌊max/w⌋ + 3
	t.head = slices.Grow(t.head[:0], size)[:size]
	for i := range t.head {
		t.head[i] = -1 // an early return leaves nodes queued
	}
	mask := size - 1
	t.link(int32(src), 0)
	for b, queued := 0, 1; queued > 0; b++ {
		for s := b & mask; t.head[s] >= 0; {
			u := t.head[s]
			t.unlink(u, s)
			queued--
			if t.pending[u] {
				t.pending[u] = false
				if left--; left == 0 {
					return
				}
			}
			du := t.dist[u]
			for i, e := range g.adj[u] {
				if d := du + e.Delay; d < t.dist[e.To] {
					v := int32(e.To)
					if old := t.dist[v]; math.IsInf(old, 1) {
						queued++
					} else {
						t.unlink(v, int(old*inv)&mask)
					}
					t.link(v, int(d*inv)&mask)
					t.dist[v] = d
					t.parent[v] = int(u)
					t.edge[v] = int32(i)
				}
			}
		}
	}
	for _, v := range targets {
		t.pending[v] = false // unreachable
	}
}

// PathMetrics returns the total delay and bottleneck bandwidth of the IP
// path from the tree's source to dst. The delay is dst's distance, which
// the run set to its parent's distance plus the recorded edge's delay: the
// path's delays added in source-to-destination order. The bottleneck is
// read off the recorded edges. A zero-length path (src==dst) has zero
// delay and infinite bandwidth. Unreachable destinations return (+Inf, 0).
func (g *Graph) PathMetrics(t *PathTree, dst int) (delay, bottleneck float64) {
	if math.IsInf(t.dist[dst], 1) {
		return math.Inf(1), 0
	}
	bottleneck = math.Inf(1)
	for v := dst; v != t.src; v = t.parent[v] {
		bottleneck = math.Min(bottleneck, g.adj[t.parent[v]][t.edge[v]].Bandwidth)
	}
	return t.dist[dst], bottleneck
}

// Connected reports whether the graph is a single connected component.
func (g *Graph) Connected() bool {
	if g.NumNodes() == 0 {
		return true
	}
	seen := make([]bool, g.NumNodes())
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[v] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == g.NumNodes()
}

// DegreeStats summarises the degree distribution.
type DegreeStats struct {
	Min, Max int
	Mean     float64
	// Counts is the degree histogram: Counts[d] nodes have degree d.
	Counts []int
	// PowerLawSlope is the least-squares slope of log(count) over
	// log(degree) across the non-zero degrees of Counts; heavy-tailed
	// graphs produce a clearly negative slope.
	PowerLawSlope float64
}

// Stats computes degree-distribution statistics, used by tests and
// acpsim -topo to confirm the generator produces a power law.
func (g *Graph) Stats() DegreeStats {
	n := g.NumNodes()
	if n == 0 {
		return DegreeStats{}
	}
	st := DegreeStats{Min: math.MaxInt}
	sum := 0
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		sum += d
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
	}
	st.Counts = make([]int, st.Max+1)
	for v := 0; v < n; v++ {
		st.Counts[g.Degree(v)]++
	}
	st.Mean = float64(sum) / float64(n)
	st.PowerLawSlope = logLogSlope(st.Counts)
	return st
}

func logLogSlope(counts []int) float64 {
	type pt struct{ x, y float64 }
	var pts []pt
	for d, c := range counts {
		if d > 0 && c > 0 {
			pts = append(pts, pt{x: math.Log(float64(d)), y: math.Log(float64(c))})
		}
	}
	if len(pts) < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		sx += p.x
		sy += p.y
		sxx += p.x * p.x
		sxy += p.x * p.y
	}
	n := float64(len(pts))
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / denom
}
