package overlay

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/qos"
	"repro/internal/topology"
)

// refBuild is Build as it was before the shortest-path runs shared one
// typed heap and stopped early: a full container/heap Dijkstra over the IP
// graph per overlay node, a path's metrics found edge by edge in each
// hop's adjacency. Its routing is refRoutes, a container/heap Dijkstra per
// overlay source. It is the reference TestBuildMatchesReference holds
// Build to.
func refBuild(g *topology.Graph, cfg Config, rng *rand.Rand) *Mesh {
	n := cfg.Nodes
	m := &Mesh{
		ipNode: rng.Perm(g.NumNodes())[:n],
		adj:    make([][]halfLink, n),
	}
	linked := make(map[[2]int]bool)
	addLink := func(a, b int) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		if linked[[2]int{a, b}] {
			return
		}
		linked[[2]int{a, b}] = true
		id := len(m.links)
		m.links = append(m.links, Link{ID: id, A: a, B: b})
		m.adj[a] = append(m.adj[a], halfLink{to: b, link: id})
		m.adj[b] = append(m.adj[b], halfLink{to: a, link: id})
	}
	for v := 0; v < n; v++ {
		for len(m.adj[v]) < cfg.NeighborsPerNode {
			addLink(v, rng.Intn(n))
		}
	}
	for v := 0; v < n; v++ {
		addLink(v, (v+1)%n)
	}

	for v := 0; v < n; v++ {
		dist, parent := refIPDijkstra(g, m.ipNode[v])
		for _, h := range m.adj[v] {
			lk := &m.links[h.link]
			if lk.A != v {
				continue
			}
			delay, bw := refPathMetrics(g, dist, parent, m.ipNode[h.to])
			loss := minLinkLoss + rng.Float64()*(maxLinkLoss-minLinkLoss)
			lk.QoS = qos.Vector{Delay: delay, LossCost: qos.LossCost(loss)}
			lk.Capacity = bw
		}
	}

	return m
}

// refRouting is the routing table Build kept before it laid out every
// route: per source, each destination's shortest delay and the last link
// on its path (-1 for the source and for an unreachable destination).
type refRouting struct {
	dist     [][]float64
	prevLink [][]int32
}

// refRoutes runs a container/heap Dijkstra per overlay source over m's
// links.
func refRoutes(m *Mesh) *refRouting {
	n := len(m.adj)
	r := &refRouting{dist: make([][]float64, n), prevLink: make([][]int32, n)}
	for src := 0; src < n; src++ {
		dist := make([]float64, n)
		prevLink := make([]int32, n)
		for i := range dist {
			dist[i] = math.Inf(1)
			prevLink[i] = -1
		}
		dist[src] = 0
		h := &refHeap{{node: src}}
		for h.Len() > 0 {
			it := heap.Pop(h).(refItem)
			if it.dist > dist[it.node] {
				continue
			}
			for _, half := range m.adj[it.node] {
				if d := it.dist + m.links[half.link].QoS.Delay; d < dist[half.to] {
					dist[half.to] = d
					prevLink[half.to] = int32(half.link)
					heap.Push(h, refItem{node: half.to, dist: d})
				}
			}
		}
		r.dist[src] = dist
		r.prevLink[src] = prevLink
	}
	return r
}

// buildRoute is how RouteBetween reconstructed a pair before the layout:
// walk the last links backwards from b, then add the links' QoS source
// to destination.
func (r *refRouting) buildRoute(m *Mesh, a, b int) (Route, bool) {
	if a == b {
		return Route{CoLocated: true}, true
	}
	if math.IsInf(r.dist[a][b], 1) {
		return Route{}, false
	}
	var rev []int
	for v := b; v != a; {
		id := int(r.prevLink[a][v])
		rev = append(rev, id)
		v = m.otherEnd(id, v)
	}
	route := Route{Links: make([]int, len(rev))}
	for i := range rev {
		id := rev[len(rev)-1-i]
		route.Links[i] = id
		route.QoS = route.QoS.Add(m.links[id].QoS)
	}
	return route, true
}

// routeDiff holds every ordered pair of m's table to the reference
// reconstruction: reachability, the links element for element, the QoS
// bits, and a path delay that is the reference distance bit for bit. It
// names the first pair that differs, or is empty.
func routeDiff(m *Mesh, ref *refRouting) string {
	bits := math.Float64bits
	n := m.NumNodes()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			got, ok := m.RouteBetween(a, b)
			want, wantOK := ref.buildRoute(m, a, b)
			if ok != wantOK || !slices.Equal(got.Links, want.Links) || got.CoLocated != want.CoLocated ||
				bits(got.QoS.Delay) != bits(want.QoS.Delay) || bits(got.QoS.LossCost) != bits(want.QoS.LossCost) {
				return fmt.Sprintf("route %d->%d = %v %v %v %v (%v), reference %v %v %v %v (%v)", a, b,
					got.Links, got.QoS.Delay, got.QoS.LossCost, got.CoLocated, ok, want.Links, want.QoS.Delay, want.QoS.LossCost, want.CoLocated, wantOK)
			}
			if ok && bits(got.QoS.Delay) != bits(ref.dist[a][b]) {
				return fmt.Sprintf("route %d->%d delay %v, reference distance %v", a, b, got.QoS.Delay, ref.dist[a][b])
			}
		}
	}
	return ""
}

func refIPDijkstra(g *topology.Graph, src int) (dist []float64, parent []int) {
	dist, parent = make([]float64, g.NumNodes()), make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[src] = 0
	h := &refHeap{{node: src}}
	for h.Len() > 0 {
		it := heap.Pop(h).(refItem)
		if it.dist > dist[it.node] {
			continue
		}
		for _, e := range g.Neighbors(it.node) {
			if d := it.dist + e.Delay; d < dist[e.To] {
				dist[e.To] = d
				parent[e.To] = it.node
				heap.Push(h, refItem{node: e.To, dist: d})
			}
		}
	}
	return dist, parent
}

func refPathMetrics(g *topology.Graph, dist []float64, parent []int, dst int) (delay, bottleneck float64) {
	if math.IsInf(dist[dst], 1) {
		return math.Inf(1), 0
	}
	var path []int
	for v := dst; v != -1; v = parent[v] {
		path = append([]int{v}, path...)
	}
	bottleneck = math.Inf(1)
	for i := 1; i < len(path); i++ {
		for _, e := range g.Neighbors(path[i-1]) {
			if e.To == path[i] {
				delay += e.Delay
				bottleneck = math.Min(bottleneck, e.Bandwidth)
				break
			}
		}
	}
	return delay, bottleneck
}

type refItem struct {
	node int
	dist float64
}

type refHeap []refItem

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// TestBuildMatchesReference holds build, on one worker and on three, to
// refBuild bit for bit: overlay node placement, every link's endpoints,
// QoS and capacity bits, every ordered pair's route against the reference
// reconstruction (routeDiff), and where build leaves rng (the next draw).
// One parallel subtest per IP graph.
func TestBuildMatchesReference(t *testing.T) {
	for _, ipNodes := range []int{400, 1600, 3200} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("ip%d/seed%d", ipNodes, seed), func(t *testing.T) {
				t.Parallel()
				tcfg := topology.DefaultConfig()
				tcfg.Nodes = ipNodes
				g, err := topology.Generate(tcfg, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range []int{20, 64, 256} {
					cfg := DefaultConfig()
					cfg.Nodes = n
					refRNG := rand.New(rand.NewSource(seed*1000 + int64(n)))
					want := refBuild(g, cfg, refRNG)
					ref, next := refRoutes(want), refRNG.Int63()
					for _, workers := range []int{1, 3} {
						rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
						got, err := build(g, cfg, rng, workers)
						if err != nil {
							t.Fatal(err)
						}
						if diff := meshDiff(got, want); diff != "" {
							t.Fatalf("N %d, %d workers: %s", n, workers, diff)
						}
						if diff := routeDiff(got, ref); diff != "" {
							t.Fatalf("N %d, %d workers: %s", n, workers, diff)
						}
						if a := rng.Int63(); a != next {
							t.Fatalf("N %d, %d workers: next draw %d, reference %d", n, workers, a, next)
						}
					}
				}
			})
		}
	}
}

// meshDiff names the first field where got and want differ, or is empty.
func meshDiff(got, want *Mesh) string {
	bits := math.Float64bits
	if len(got.ipNode) != len(want.ipNode) || len(got.links) != len(want.links) {
		return "mesh sizes differ"
	}
	for v := range want.ipNode {
		if got.ipNode[v] != want.ipNode[v] {
			return fmt.Sprintf("ipNode[%d] = %d, reference %d", v, got.ipNode[v], want.ipNode[v])
		}
	}
	for id, w := range want.links {
		g := got.links[id]
		if g.ID != w.ID || g.A != w.A || g.B != w.B || bits(g.QoS.Delay) != bits(w.QoS.Delay) ||
			bits(g.QoS.LossCost) != bits(w.QoS.LossCost) || bits(g.Capacity) != bits(w.Capacity) {
			return fmt.Sprintf("link %d = %+v, reference %+v", id, g, w)
		}
	}
	return ""
}
