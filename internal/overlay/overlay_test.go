package overlay

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/qos"
	"repro/internal/topology"
)

func testMesh(t *testing.T, overlayNodes int, seed int64) *Mesh {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tcfg := topology.DefaultConfig()
	tcfg.Nodes = 800
	g, err := topology.Generate(tcfg, rng)
	if err != nil {
		t.Fatalf("topology.Generate: %v", err)
	}
	ocfg := DefaultConfig()
	ocfg.Nodes = overlayNodes
	m, err := Build(g, ocfg, rng)
	if err != nil {
		t.Fatalf("overlay.Build: %v", err)
	}
	return m
}

func TestBuildValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tcfg := topology.DefaultConfig()
	tcfg.Nodes = 50
	g, err := topology.Generate(tcfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "too few nodes", mutate: func(c *Config) { c.Nodes = 1 }},
		{name: "more overlay than IP nodes", mutate: func(c *Config) { c.Nodes = 51 }},
		{name: "zero neighbors", mutate: func(c *Config) { c.Nodes = 10; c.NeighborsPerNode = 0 }},
		{name: "neighbors exceed nodes", mutate: func(c *Config) { c.Nodes = 10; c.NeighborsPerNode = 10 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if _, err := Build(g, cfg, rand.New(rand.NewSource(2))); err == nil {
				t.Error("Build accepted invalid config")
			}
		})
	}
}

func TestBuildBasicShape(t *testing.T) {
	m := testMesh(t, 60, 3)
	if m.NumNodes() != 60 {
		t.Fatalf("NumNodes = %d, want 60", m.NumNodes())
	}
	// Every node must reach its target degree (ring chord may add more).
	for v := 0; v < m.NumNodes(); v++ {
		if got := len(m.adj[v]); got < DefaultConfig().NeighborsPerNode {
			t.Errorf("node %d degree = %d, want >= %d", v, got, DefaultConfig().NeighborsPerNode)
		}
	}
	// Distinct IP nodes per overlay node.
	seen := make(map[int]bool)
	for v := 0; v < m.NumNodes(); v++ {
		ip := m.ipNode[v]
		if seen[ip] {
			t.Fatalf("IP node %d used twice", ip)
		}
		seen[ip] = true
	}
}

func TestBuildLinkAttributes(t *testing.T) {
	m := testMesh(t, 40, 4)
	for id := 0; id < m.NumLinks(); id++ {
		lk := m.Link(id)
		if lk.A >= lk.B {
			t.Fatalf("link %d endpoints not ordered: %d, %d", id, lk.A, lk.B)
		}
		if lk.QoS.Delay <= 0 {
			t.Errorf("link %d has non-positive delay %v", id, lk.QoS.Delay)
		}
		if lk.Capacity <= 0 || math.IsInf(lk.Capacity, 1) {
			t.Errorf("link %d has bad capacity %v", id, lk.Capacity)
		}
		if lk.QoS.LossCost <= 0 {
			t.Errorf("link %d has non-positive loss cost %v", id, lk.QoS.LossCost)
		}
	}
}

func TestAdjacentLinksConsistent(t *testing.T) {
	m := testMesh(t, 40, 5)
	for v := 0; v < m.NumNodes(); v++ {
		for _, h := range m.adj[v] {
			lk := m.Link(h.link)
			if lk.A != v && lk.B != v || m.otherEnd(h.link, v) != h.to {
				t.Fatalf("link %d listed adjacent to %d toward %d but connects %d-%d", h.link, v, h.to, lk.A, lk.B)
			}
		}
	}
}

func TestRouteBetweenSelf(t *testing.T) {
	m := testMesh(t, 30, 6)
	r, ok := m.RouteBetween(7, 7)
	if !ok {
		t.Fatal("self route not found")
	}
	if !r.CoLocated {
		t.Error("self route not marked co-located")
	}
	if r.QoS != (qos.Vector{}) {
		t.Errorf("self route QoS = %v, want zero", r.QoS)
	}
	if len(r.Links) != 0 {
		t.Errorf("self route has %d links", len(r.Links))
	}
}

func TestRouteBetweenAggregation(t *testing.T) {
	m := testMesh(t, 50, 7)
	for a := 0; a < m.NumNodes(); a += 7 {
		for b := 0; b < m.NumNodes(); b += 11 {
			if a == b {
				continue
			}
			r, ok := m.RouteBetween(a, b)
			if !ok {
				t.Fatalf("no route %d -> %d", a, b)
			}
			// Recompute aggregation by hand from the link sequence.
			var wantQoS qos.Vector
			at := a
			for _, id := range r.Links {
				lk := m.Link(id)
				if lk.A != at && lk.B != at {
					t.Fatalf("route %d->%d: link %d does not continue from node %d", a, b, id, at)
				}
				wantQoS = wantQoS.Add(lk.QoS)
				at = m.otherEnd(id, at)
			}
			if at != b {
				t.Fatalf("route %d->%d ends at %d", a, b, at)
			}
			if math.Abs(wantQoS.Delay-r.QoS.Delay) > 1e-9 || math.Abs(wantQoS.LossCost-r.QoS.LossCost) > 1e-9 {
				t.Errorf("route %d->%d QoS %v, recomputed %v", a, b, r.QoS, wantQoS)
			}
		}
	}
}

// delay is the shortest overlay path delay from a to b.
func delay(m *Mesh, a, b int) float64 {
	r, _ := m.RouteBetween(a, b)
	return r.QoS.Delay
}

// TestRouteSymmetricDelay: with undirected links, shortest delays must be
// symmetric.
func TestRouteSymmetricDelay(t *testing.T) {
	m := testMesh(t, 40, 8)
	f := func(x, y uint8) bool {
		a := int(x) % m.NumNodes()
		b := int(y) % m.NumNodes()
		return math.Abs(delay(m, a, b)-delay(m, b, a)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRouteTriangleInequality: shortest-path delays must satisfy
// d(a,c) <= d(a,b) + d(b,c).
func TestRouteTriangleInequality(t *testing.T) {
	m := testMesh(t, 40, 9)
	f := func(x, y, z uint8) bool {
		a := int(x) % m.NumNodes()
		b := int(y) % m.NumNodes()
		c := int(z) % m.NumNodes()
		return delay(m, a, c) <= delay(m, a, b)+delay(m, b, c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBuildDeterministic(t *testing.T) {
	m1 := testMesh(t, 40, 10)
	m2 := testMesh(t, 40, 10)
	if m1.NumLinks() != m2.NumLinks() {
		t.Fatalf("link counts differ: %d vs %d", m1.NumLinks(), m2.NumLinks())
	}
	for id := 0; id < m1.NumLinks(); id++ {
		if m1.Link(id) != m2.Link(id) {
			t.Fatalf("link %d differs: %+v vs %+v", id, m1.Link(id), m2.Link(id))
		}
	}
}

// TestRouteBetweenConcurrentReaders reads every ordered pair from
// several goroutines at once, each in its own order (meaningful under
// -race): the table is read-only after Build, so every reader sees the
// route a serial pass saw, on the same shared Links.
func TestRouteBetweenConcurrentReaders(t *testing.T) {
	m := testMesh(t, 40, 9)
	n := m.NumNodes()
	want := make([]Route, n*n)
	for i := range want {
		want[i], _ = m.RouteBetween(i/n, i%n)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(w))).Perm(n * n) {
				got, ok := m.RouteBetween(i/n, i%n)
				if !ok || !reflect.DeepEqual(got, want[i]) || len(got.Links) > 0 && &got.Links[0] != &want[i].Links[0] {
					t.Errorf("route %d->%d = %+v (%v), serial pass saw %+v", i/n, i%n, got, ok, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRouteBetweenUnreachable hand-assembles a mesh of two islands: a
// pair across them reports false either way, a pair inside an island
// still routes, and both agree with the reference reconstruction.
func TestRouteBetweenUnreachable(t *testing.T) {
	m := &Mesh{
		ipNode: []int{0, 1, 2, 3},
		links: []Link{
			{ID: 0, A: 0, B: 1, QoS: qos.Vector{Delay: 1}, Capacity: 10},
			{ID: 1, A: 2, B: 3, QoS: qos.Vector{Delay: 2}, Capacity: 20},
		},
		adj: [][]halfLink{{{to: 1, link: 0}}, {{to: 0, link: 0}}, {{to: 3, link: 1}}, {{to: 2, link: 1}}},
	}
	if err := m.computeRouting(1); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{0, 3}, {3, 0}, {1, 2}} {
		if r, ok := m.RouteBetween(pair[0], pair[1]); ok {
			t.Fatalf("islands are connected %d->%d by %+v", pair[0], pair[1], r)
		}
	}
	r, ok := m.RouteBetween(3, 2)
	if !ok || len(r.Links) != 1 || r.Links[0] != 1 || r.QoS.Delay != 2 {
		t.Fatalf("route 3->2 = %+v (%v)", r, ok)
	}
	if diff := routeDiff(m, refRoutes(m)); diff != "" {
		t.Fatal(diff)
	}
}

// TestRouteTableSize pins the layout's cost: a table entry is at most 24
// bytes, and the link arena holds every route's hops exactly, with no
// growth slack.
func TestRouteTableSize(t *testing.T) {
	if size := unsafe.Sizeof(routeEntry{}); size > 24 {
		t.Errorf("a route table entry is %d bytes, want <= 24", size)
	}
	m := testMesh(t, 64, 11)
	hops := 0
	for _, e := range m.routes {
		hops += max(int(e.n), 0)
	}
	if len(m.arena) != hops || cap(m.arena) != hops {
		t.Errorf("arena len %d cap %d, routes hold %d hops", len(m.arena), cap(m.arena), hops)
	}
}
