package overlay

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/qos"
	"repro/internal/topology"
)

// refBuild is Build as it was before the shortest-path runs shared one
// typed heap and stopped early: a full container/heap Dijkstra over the IP
// graph per overlay node, a path's metrics found edge by edge in each
// hop's adjacency, and a container/heap Dijkstra per overlay source. It
// is the reference TestBuildMatchesReference holds Build to.
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
			loss := cfg.MinLinkLoss + rng.Float64()*(cfg.MaxLinkLoss-cfg.MinLinkLoss)
			lk.QoS = qos.Vector{Delay: delay, LossCost: qos.LossCost(loss)}
			lk.Capacity = bw
		}
	}

	m.dist = make([][]float64, n)
	m.prevLink = make([][]int32, n)
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
		m.dist[src] = dist
		m.prevLink[src] = prevLink
	}
	return m
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

// TestBuildMatchesReference holds Build to refBuild bit for bit: overlay
// node placement, every link's endpoints, QoS and capacity bits, the
// routing table's distance bits and last links, and where Build leaves
// rng (the next draw). One parallel subtest per IP graph.
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
					rng, refRNG := rand.New(rand.NewSource(seed*1000+int64(n))), rand.New(rand.NewSource(seed*1000+int64(n)))
					got, err := Build(g, cfg, rng)
					if err != nil {
						t.Fatal(err)
					}
					if diff := meshDiff(got, refBuild(g, cfg, refRNG)); diff != "" {
						t.Fatalf("N %d: %s", n, diff)
					}
					if a, b := rng.Int63(), refRNG.Int63(); a != b {
						t.Fatalf("N %d: next draw %d, reference %d", n, a, b)
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
	for a := range want.dist {
		for b := range want.dist[a] {
			if bits(got.dist[a][b]) != bits(want.dist[a][b]) || got.prevLink[a][b] != want.prevLink[a][b] {
				return fmt.Sprintf("route %d->%d = (%v, %d), reference (%v, %d)", a, b, got.dist[a][b], got.prevLink[a][b], want.dist[a][b], want.prevLink[a][b])
			}
		}
	}
	return ""
}
