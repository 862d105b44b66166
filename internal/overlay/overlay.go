// Package overlay builds the application-level overlay mesh of stream
// processing nodes on top of the IP-layer topology (§2.1 of the paper).
//
// A Mesh selects N stream processing nodes from the IP graph and connects
// each to k overlay neighbours. Every overlay link is mapped onto the
// delay-based IP shortest path between its endpoints, inheriting that
// path's total delay and bottleneck bandwidth. A virtual link between two
// arbitrary overlay nodes is the overlay path between them; its QoS is the
// aggregation of its constituent overlay links and its bandwidth is the
// bottleneck among them (§2.1), which the state ledger reads per link.
// Build lays out every pair's virtual link once; the mesh is read-only
// after it.
package overlay

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/qos"
	"repro/internal/topology"
)

// Link is an undirected overlay link between two overlay nodes.
type Link struct {
	// ID is the link's dense index in the mesh.
	ID int
	// A and B are overlay node indices with A < B.
	A, B int
	// QoS carries the link's transmission delay and loss cost, derived
	// from the underlying IP path plus the link's own loss rate.
	QoS qos.Vector
	// Capacity is the bottleneck bandwidth (kbps) of the IP path.
	Capacity float64
}

// Route is a virtual link: the overlay path between two overlay nodes.
type Route struct {
	// Links lists the overlay link IDs along the path, in order. A nil
	// Links with a true CoLocated means the endpoints share a node. The
	// slice is shared by every caller of RouteBetween: read-only.
	Links []int
	// QoS aggregates delay and loss cost over the path's links.
	QoS qos.Vector
	// CoLocated is true when source and destination are the same overlay
	// node: the virtual link has zero delay and consumes no bandwidth.
	CoLocated bool
}

// Config controls mesh construction.
type Config struct {
	// Nodes is the overlay size N; the paper sweeps 200..600.
	Nodes int
	// NeighborsPerNode is the overlay degree k each node aims for.
	NeighborsPerNode int
}

// minLinkLoss and maxLinkLoss bound the per-overlay-link loss rate.
// Typed: untyped, Go would fold maxLinkLoss-minLinkLoss exactly, not as
// the float64 difference of the two bounds, and move each draw's last bit.
const minLinkLoss, maxLinkLoss float64 = 0.0005, 0.005

// DefaultConfig matches the paper's mid-scale setup (N=400).
func DefaultConfig() Config {
	return Config{
		Nodes:            400,
		NeighborsPerNode: 6,
	}
}

type halfLink struct {
	to   int // overlay node index
	link int // link ID
}

// Mesh is the overlay of stream processing nodes.
type Mesh struct {
	ipNode []int // overlay index -> IP node id
	links  []Link
	adj    [][]halfLink

	// Routing table, laid out once by Build and never written again: the
	// route from a to b is routes[a*N+b], its links the span of arena it
	// names.
	routes []routeEntry
	arena  []int
}

// routeEntry is one ordered pair of the routing table: the path's
// aggregated QoS and its links as arena[off:off+n]; n is -1 when the
// pair is unreachable. 24 bytes.
type routeEntry struct {
	qos    qos.Vector
	off, n int32
}

// Build selects overlay nodes from the IP graph, wires the mesh, maps
// links onto IP paths, and precomputes all-pairs overlay routing. All
// randomness comes from rng.
func Build(g *topology.Graph, cfg Config, rng *rand.Rand) (*Mesh, error) {
	n := cfg.Nodes
	if n < 2 {
		return nil, fmt.Errorf("overlay: Nodes %d < 2", n)
	}
	if n > g.NumNodes() {
		return nil, fmt.Errorf("overlay: Nodes %d exceeds IP nodes %d", n, g.NumNodes())
	}
	if cfg.NeighborsPerNode < 1 || cfg.NeighborsPerNode >= n {
		return nil, fmt.Errorf("overlay: NeighborsPerNode %d out of range", cfg.NeighborsPerNode)
	}

	m := &Mesh{
		ipNode: rng.Perm(g.NumNodes())[:n],
		adj:    make([][]halfLink, n),
	}

	// Wire each node to k random distinct peers (undirected, deduped).
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
	// Guarantee connectivity with a ring chord; duplicates are deduped.
	for v := 0; v < n; v++ {
		addLink(v, (v+1)%n)
	}

	// Map overlay links to IP shortest paths. Each link is filled from its
	// A side: one Dijkstra per overlay node over the IP graph, stopped once
	// the far ends of the node's A-side links are settled.
	var tree topology.PathTree
	var targets []int
	for v := 0; v < n; v++ {
		targets = targets[:0]
		for _, h := range m.adj[v] {
			if m.links[h.link].A == v {
				targets = append(targets, m.ipNode[h.to])
			}
		}
		if len(targets) == 0 {
			continue
		}
		g.Route(&tree, m.ipNode[v], targets)
		for _, h := range m.adj[v] {
			lk := &m.links[h.link]
			if lk.A != v {
				continue
			}
			delay, bw := g.PathMetrics(&tree, m.ipNode[h.to])
			if math.IsInf(delay, 1) {
				return nil, fmt.Errorf("overlay: IP nodes %d and %d disconnected", m.ipNode[v], m.ipNode[h.to])
			}
			loss := minLinkLoss + rng.Float64()*(maxLinkLoss-minLinkLoss)
			lk.QoS = qos.Vector{Delay: delay, LossCost: qos.LossCost(loss)}
			lk.Capacity = bw
		}
	}

	if err := m.computeRouting(); err != nil {
		return nil, err
	}
	return m, nil
}

// NumNodes returns the overlay size N.
func (m *Mesh) NumNodes() int { return len(m.ipNode) }

// NumLinks returns the number of overlay links.
func (m *Mesh) NumLinks() int { return len(m.links) }

// Link returns the overlay link with the given ID.
func (m *Mesh) Link(id int) Link { return m.links[id] }

// computeRouting runs delay-based Dijkstra from every overlay node, on the
// IP graph's topology.MinHeap, and lays out every ordered pair's route.
// A popped node's distance and last link are final (delays are
// non-negative, relaxation is strict) and its tree parent was popped
// before it, so a route's QoS is folded in pop order as its parent's QoS
// plus the last link: the links added source to destination. The last
// links are kept per source until the hop total sizes the arena; each
// route is then written backwards from its destination.
func (m *Mesh) computeRouting() error {
	n := m.NumNodes()
	m.routes = make([]routeEntry, n*n)
	dist := make([]float64, n)
	prevLinks := make([]int32, n*n)
	var h topology.MinHeap
	hops := 0
	for src := 0; src < n; src++ {
		row := m.routes[src*n : (src+1)*n : (src+1)*n]
		prevLink := prevLinks[src*n : (src+1)*n : (src+1)*n]
		for i := range dist {
			dist[i] = math.Inf(1)
			prevLink[i] = -1
			row[i].n = -1
		}
		dist[src] = 0
		row[src].n = 0
		h.Push(src, 0)
		for h.Len() > 0 {
			u, du := h.Pop()
			if du > dist[u] {
				continue
			}
			if id := prevLink[u]; id >= 0 {
				p := &row[m.otherEnd(int(id), u)]
				row[u].qos, row[u].n = p.qos.Add(m.links[id].QoS), p.n+1
				hops += int(row[u].n)
			}
			for _, half := range m.adj[u] {
				if d := du + m.links[half.link].QoS.Delay; d < dist[half.to] {
					dist[half.to] = d
					prevLink[half.to] = int32(half.link)
					h.Push(half.to, d)
				}
			}
		}
	}
	if hops > math.MaxInt32 {
		return fmt.Errorf("overlay: %d route hops overflow the link arena", hops)
	}
	m.arena = make([]int, hops)
	off := int32(0)
	for i := range m.routes {
		e := &m.routes[i]
		if e.n <= 0 {
			continue
		}
		e.off = off
		off += e.n
		src := i / n
		for v, k := i%n, off-1; v != src; k-- {
			id := int(prevLinks[src*n+v])
			m.arena[k] = id
			v = m.otherEnd(id, v)
		}
	}
	return nil
}

// otherEnd returns the endpoint of link id that is not v.
func (m *Mesh) otherEnd(id, v int) int {
	lk := m.links[id]
	if lk.A == v {
		return lk.B
	}
	return lk.A
}

// RouteBetween returns the virtual link from overlay node a to overlay
// node b. When a == b the route is co-located: zero QoS, no links
// (footnote 4). The bool result is false when the two nodes are
// disconnected in the overlay (which Build prevents, but callers of
// hand-assembled meshes may encounter). The returned Links slice is the
// mesh's own and must not be modified. Safe for concurrent use: the
// table is read-only after Build.
func (m *Mesh) RouteBetween(a, b int) (Route, bool) {
	if a == b {
		return Route{CoLocated: true}, true
	}
	e := m.routes[a*len(m.ipNode)+b]
	if e.n < 0 {
		return Route{}, false
	}
	end := e.off + e.n
	return Route{Links: m.arena[e.off:end:end], QoS: e.qos}, true
}
