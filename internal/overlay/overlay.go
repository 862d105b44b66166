// Package overlay builds the application-level overlay mesh of stream
// processing nodes on top of the IP-layer topology (§2.1 of the paper).
//
// A Mesh selects N stream processing nodes from the IP graph and connects
// each to k overlay neighbours. Every overlay link is mapped onto the
// delay-based IP shortest path between its endpoints, inheriting that
// path's total delay and bottleneck bandwidth. A virtual link between two
// arbitrary overlay nodes is the overlay path between them; its QoS is the
// aggregation of its constituent overlay links and its capacity is the
// bottleneck among them (§2.1).
package overlay

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

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
	// Capacity is the bottleneck static capacity among the links (kbps);
	// +Inf for a co-located route (footnote 4 of the paper).
	Capacity float64
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
	// MinLinkLoss and MaxLinkLoss bound the per-overlay-link loss rate.
	MinLinkLoss, MaxLinkLoss float64
}

// DefaultConfig matches the paper's mid-scale setup (N=400).
func DefaultConfig() Config {
	return Config{
		Nodes:            400,
		NeighborsPerNode: 6,
		MinLinkLoss:      0.0005,
		MaxLinkLoss:      0.005,
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

	// Routing state: dist[i][j], prevLink[i][j] = last link on the
	// shortest overlay path i->j, the one into j (-1 when i==j or
	// unreachable); buildRoute walks it backwards from j.
	dist     [][]float64
	prevLink [][]int32

	// Route cache, one entry per ordered node pair at from*N+to, filled on
	// first use and kept for the mesh's lifetime (the topology never
	// changes).
	routes  []routeEntry
	routeMu sync.Mutex // serializes fills; readers never take it
}

// routeEntry is one slot of the route cache. state publishes route: a
// reader that loads routeKnown sees the route written before that store.
// State and route share the entry — 64 bytes, one cache line per lookup.
type routeEntry struct {
	state atomic.Uint32
	route Route
}

// States of a route cache entry.
const (
	routeUnknown uint32 = iota
	routeKnown
	routeUnreachable
)

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
	if cfg.MinLinkLoss < 0 || cfg.MaxLinkLoss < cfg.MinLinkLoss || cfg.MaxLinkLoss >= 1 {
		return nil, fmt.Errorf("overlay: invalid loss range [%v, %v]", cfg.MinLinkLoss, cfg.MaxLinkLoss)
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
			loss := cfg.MinLinkLoss + rng.Float64()*(cfg.MaxLinkLoss-cfg.MinLinkLoss)
			lk.QoS = qos.Vector{Delay: delay, LossCost: qos.LossCost(loss)}
			lk.Capacity = bw
		}
	}

	m.computeRouting()
	return m, nil
}

// NumNodes returns the overlay size N.
func (m *Mesh) NumNodes() int { return len(m.ipNode) }

// NumLinks returns the number of overlay links.
func (m *Mesh) NumLinks() int { return len(m.links) }

// IPNode returns the IP-layer node hosting overlay node v.
func (m *Mesh) IPNode(v int) int { return m.ipNode[v] }

// Link returns the overlay link with the given ID.
func (m *Mesh) Link(id int) Link { return m.links[id] }

// Neighbors returns the overlay node indices adjacent to v.
func (m *Mesh) Neighbors(v int) []int {
	out := make([]int, len(m.adj[v]))
	for i, h := range m.adj[v] {
		out[i] = h.to
	}
	return out
}

// AdjacentLinks returns the IDs of the overlay links incident to v.
func (m *Mesh) AdjacentLinks(v int) []int {
	out := make([]int, len(m.adj[v]))
	for i, h := range m.adj[v] {
		out[i] = h.link
	}
	return out
}

// computeRouting runs delay-based Dijkstra from every overlay node, on the
// IP graph's topology.MinHeap, and records, for each destination, the last
// link on the shortest path; a route is then reconstructed by walking
// destinations backwards.
func (m *Mesh) computeRouting() {
	n := m.NumNodes()
	m.dist = make([][]float64, n)
	m.prevLink = make([][]int32, n)
	distRows, prevRows := make([]float64, n*n), make([]int32, n*n)
	var h topology.MinHeap
	for src := 0; src < n; src++ {
		dist := distRows[src*n : (src+1)*n : (src+1)*n]
		prevLink := prevRows[src*n : (src+1)*n : (src+1)*n]
		for i := range dist {
			dist[i] = math.Inf(1)
			prevLink[i] = -1
		}
		dist[src] = 0
		h.Push(src, 0)
		for h.Len() > 0 {
			u, du := h.Pop()
			if du > dist[u] {
				continue
			}
			for _, half := range m.adj[u] {
				if d := du + m.links[half.link].QoS.Delay; d < dist[half.to] {
					dist[half.to] = d
					prevLink[half.to] = int32(half.link)
					h.Push(half.to, d)
				}
			}
		}
		m.dist[src] = dist
		m.prevLink[src] = prevLink
	}
	m.routes = make([]routeEntry, n*n)
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
// node b. When a == b the route is co-located: zero QoS, infinite
// capacity, no links (footnote 4). The bool result is false when the two
// nodes are disconnected in the overlay (which Build prevents, but callers
// of hand-assembled meshes may encounter). Each pair's path is
// reconstructed once; the returned Links slice is the cached one and
// must not be modified. Safe for concurrent use.
func (m *Mesh) RouteBetween(a, b int) (Route, bool) {
	if a == b {
		return Route{Capacity: math.Inf(1), CoLocated: true}, true
	}
	e := &m.routes[a*len(m.ipNode)+b]
	state := e.state.Load()
	if state == routeUnknown {
		state = m.fillRoute(a, b, e)
	}
	return e.route, state == routeKnown
}

// fillRoute computes a cache entry once and returns its state: whoever
// gets the mutex first writes the route and then publishes it.
func (m *Mesh) fillRoute(a, b int, e *routeEntry) uint32 {
	m.routeMu.Lock()
	defer m.routeMu.Unlock()
	if state := e.state.Load(); state != routeUnknown {
		return state
	}
	state := routeUnreachable
	if r, ok := m.buildRoute(a, b); ok {
		e.route, state = r, routeKnown
	}
	e.state.Store(state)
	return state
}

// buildRoute reconstructs the overlay path between two distinct nodes by
// walking the routing table backwards from b.
func (m *Mesh) buildRoute(a, b int) (Route, bool) {
	if math.IsInf(m.dist[a][b], 1) {
		return Route{}, false
	}
	var rev []int
	for v := b; v != a; {
		id := int(m.prevLink[a][v])
		rev = append(rev, id)
		v = m.otherEnd(id, v)
	}
	r := Route{Links: make([]int, len(rev)), Capacity: math.Inf(1)}
	for i := range rev {
		id := rev[len(rev)-1-i]
		r.Links[i] = id
		r.QoS = r.QoS.Add(m.links[id].QoS)
		r.Capacity = math.Min(r.Capacity, m.links[id].Capacity)
	}
	return r, true
}

// Delay returns the shortest overlay path delay between two nodes.
func (m *Mesh) Delay(a, b int) float64 {
	if a == b {
		return 0
	}
	return m.dist[a][b]
}
