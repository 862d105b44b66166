// Package component models stream processing components, functions,
// application templates (function graphs), and composition requests
// (§2.1–2.2 of the paper).
//
// A component is a self-contained stream processing element providing one
// atomic function (filtering, aggregation, correlation, ...). Components
// are deployed on overlay nodes; composition selects one deployed
// component per function of a requested function graph.
package component

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/qos"
)

// FunctionID identifies one of the system's atomic stream processing
// functions. The paper's simulation uses 80 pre-defined functions.
type FunctionID int

// DefaultNumFunctions is the size of the paper's function catalogue.
const DefaultNumFunctions = 80

// ComponentID densely indexes deployed components.
type ComponentID int

// Component is a deployed stream processing element.
type Component struct {
	ID   ComponentID
	Node int // overlay node index hosting the component
	// Function is the atomic stream processing function provided.
	Function FunctionID
	// QoS carries the component's per-data-unit processing delay and
	// loss cost (the q^c vector of §2.1).
	QoS qos.Vector
	// Security is the component's security level, an
	// application-specific constraint from the paper's future-work list
	// (§6): requests may demand a minimum level. Levels start at 1.
	Security int
}

// Edge is a dependency edge between two positions of a function graph.
type Edge struct {
	// From and To are positions (indices into Graph.Functions).
	From, To int
}

// Graph is a function graph xi: the template of a stream processing
// application (Figure 1(c)). Positions index into Functions; Edges point
// from a function to the functions that consume its output. The paper's
// templates are either simple paths or DAGs with two branch paths.
type Graph struct {
	// Functions lists the required function per position.
	Functions []FunctionID
	// Edges are the dependency links, each from one position to another.
	Edges []Edge
}

// NumPositions returns the number of function nodes in the graph.
func (g *Graph) NumPositions() int { return len(g.Functions) }

// Successors returns the positions directly downstream of position p.
func (g *Graph) Successors(p int) []int {
	var out []int
	for _, e := range g.Edges {
		if e.From == p {
			out = append(out, e.To)
		}
	}
	return out
}

// Predecessors returns the positions directly upstream of position p.
func (g *Graph) Predecessors(p int) []int {
	var out []int
	for _, e := range g.Edges {
		if e.To == p {
			out = append(out, e.From)
		}
	}
	return out
}

// Validate checks structural sanity: at least one position, edges in
// range, no self-loops or duplicate edges, acyclic, exactly one source
// and one sink (see Plan.Build). Composition probing relies on the
// single-source/single-sink shape to merge probed branch paths (§3.3).
func (g *Graph) Validate() error {
	var p Plan
	return p.Build(g)
}

// Plan is what a probe needs of the graph at every hop, computed once per
// request and read-only afterwards, so every probe of the request — on
// whatever node or goroutine it is processed — shares one.
type Plan struct {
	// Order lists the positions in topological order; a probe at hop i
	// fills Order[i].
	Order []int
	// Index is the inverse of Order: Index[p] is the hop that fills p.
	Index []int
	// Preds[p] lists the positions directly upstream of p in edge order,
	// element for element what Predecessors(p) returns. The windows lie
	// one after another in position order.
	Preds [][]int

	buf []int // backs Order, Index and the Preds windows
}

// Build validates g and makes p its walk plan, in p's own storage: a plan
// rebuilt for a graph no larger than one it held allocates nothing. After
// an error p is not the plan of any graph.
//
// It checks what Validate promises. Kahn's queue is Order itself and
// successors come from scanning g.Edges in order, so Order is the
// breadth-first topological order, sources by position. Connectivity
// needs no check of its own: in a DAG every position reaches a sink, so
// with exactly one sink every position is connected to it.
func (p *Plan) Build(g *Graph) error {
	n, m := len(g.Functions), len(g.Edges)
	if n == 0 {
		return fmt.Errorf("component: graph has no functions")
	}
	for i, e := range g.Edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("component: edge %v out of range", e)
		}
		if e.From == e.To {
			return fmt.Errorf("component: self-loop at position %d", e.From)
		}
		if slices.Contains(g.Edges[:i], e) {
			return fmt.Errorf("component: duplicate edge %v", e)
		}
	}
	p.buf = slices.Grow(p.buf[:0], 2*n+m)[:2*n+m]
	order, index, flat := p.buf[:0:n], p.buf[n:2*n], p.buf[2*n:]
	// index holds the indegrees until the order is known; they size the
	// predecessor windows.
	clear(index)
	for _, e := range g.Edges {
		index[e.To]++
	}
	p.Preds = slices.Grow(p.Preds[:0], n)[:n]
	off := 0
	for v, deg := range index {
		p.Preds[v] = flat[off : off : off+deg]
		off += deg
		if deg == 0 {
			order = append(order, v)
		}
	}
	for _, e := range g.Edges {
		p.Preds[e.To] = append(p.Preds[e.To], e.From)
	}
	sources, sinks := len(order), 0
	for head := 0; head < len(order); head++ {
		v, last := order[head], true
		for _, e := range g.Edges {
			if e.From == v {
				last = false
				if index[e.To]--; index[e.To] == 0 {
					order = append(order, e.To)
				}
			}
		}
		if last {
			sinks++
		}
	}
	switch {
	case len(order) != n:
		return fmt.Errorf("component: graph has a cycle")
	case sources != 1:
		return fmt.Errorf("component: graph has %d sources, want 1", sources)
	case sinks != 1:
		return fmt.Errorf("component: graph has %d sinks, want 1", sinks)
	}
	for i, v := range order {
		index[v] = i
	}
	p.Order, p.Index = order, index
	return nil
}

// NewPathGraph builds a simple chain over the given functions. It makes
// three allocations at any length — the Graph, Functions and Edges —
// and two for a single position, which has no edges.
func NewPathGraph(functions []FunctionID) *Graph {
	g := &Graph{Functions: append([]FunctionID(nil), functions...)}
	if len(functions) > 1 {
		g.Edges = make([]Edge, len(functions)-1)
		for i := range g.Edges {
			g.Edges[i] = Edge{From: i, To: i + 1}
		}
	}
	return g
}

// NewBranchGraph builds the paper's two-branch DAG shape: a shared source,
// two parallel internal branches, and a shared sink (Figure 1(b)/(c)).
// branch1 and branch2 must each be non-empty. Like NewPathGraph it
// sizes Functions and Edges once: every position but the source has one
// incoming edge, and the sink two.
func NewBranchGraph(source FunctionID, branch1, branch2 []FunctionID, sink FunctionID) (*Graph, error) {
	if len(branch1) == 0 || len(branch2) == 0 {
		return nil, fmt.Errorf("component: branch graphs need non-empty branches")
	}
	n := len(branch1) + len(branch2) + 2
	g := &Graph{Functions: make([]FunctionID, 1, n), Edges: make([]Edge, 0, n)}
	g.Functions[0] = source
	appendBranch := func(branch []FunctionID) int {
		prev := 0 // source position
		for _, f := range branch {
			g.Functions = append(g.Functions, f)
			pos := len(g.Functions) - 1
			g.Edges = append(g.Edges, Edge{From: prev, To: pos})
			prev = pos
		}
		return prev
	}
	end1 := appendBranch(branch1)
	end2 := appendBranch(branch2)
	g.Functions = append(g.Functions, sink)
	sinkPos := len(g.Functions) - 1
	g.Edges = append(g.Edges, Edge{From: end1, To: sinkPos}, Edge{From: end2, To: sinkPos})
	return g, nil
}

// Request is a stream processing composition request (§2.2): the function
// graph xi, QoS requirements Q^req, per-position end-system resource
// requirements R^req, and the bandwidth requirement per virtual link.
type Request struct {
	ID int64
	// Graph is the requested application template instance.
	Graph *Graph
	// QoSReq bounds the end-to-end accumulated QoS (Eq. 3).
	QoSReq qos.Vector
	// ResReq holds the per-position end-system resource demand (Eq. 4).
	// Its length equals Graph.NumPositions().
	ResReq []qos.Resources
	// BandwidthReq is the bandwidth demand b^l of every inter-component
	// virtual link, in kbps (Eq. 5).
	BandwidthReq float64
	// Client is the overlay node closest to the requesting client; it
	// becomes the deputy node that runs the ACP protocol (§3.3).
	Client int
	// Duration is the application session length (the paper draws 5–15
	// minutes uniformly).
	Duration time.Duration
	// MinSecurity is the minimum component security level acceptable to
	// this application (0 or 1 = unconstrained).
	MinSecurity int
	// Tenant labels the application (multi-tenant clusters); empty in
	// single-application runs.
	Tenant string
	// Weight is the tenant's phi weight under core.PhiWeighted; zero
	// means the default weight 1 (see PhiWeight).
	Weight float64
}

// PhiWeight returns the request's effective phi weight: Weight when
// set, otherwise the baseline 1, so single-application requests never
// have to spell a weight out.
func (r *Request) PhiWeight() float64 {
	if r.Weight > 0 {
		return r.Weight
	}
	return 1
}

// Validate checks the request is internally consistent.
func (r *Request) Validate() error {
	var p Plan
	return r.Check(&p)
}

// Check is Validate that leaves the request's walk plan in p (see
// Plan.Build), so a caller that walks the graph validates and plans it
// in one pass over p's reused storage.
func (r *Request) Check(p *Plan) error {
	if r.Graph == nil {
		return fmt.Errorf("component: request %d has no function graph", r.ID)
	}
	if err := p.Build(r.Graph); err != nil {
		return fmt.Errorf("request %d: %w", r.ID, err)
	}
	if len(r.ResReq) != r.Graph.NumPositions() {
		return fmt.Errorf("component: request %d has %d resource requirements for %d positions",
			r.ID, len(r.ResReq), r.Graph.NumPositions())
	}
	if r.BandwidthReq < 0 {
		return fmt.Errorf("component: request %d has negative bandwidth requirement", r.ID)
	}
	if r.Duration <= 0 {
		return fmt.Errorf("component: request %d has non-positive duration", r.ID)
	}
	if r.MinSecurity < 0 {
		return fmt.Errorf("component: request %d has negative security level", r.ID)
	}
	if r.Weight < 0 || math.IsNaN(r.Weight) || math.IsInf(r.Weight, 0) {
		return fmt.Errorf("component: request %d has invalid phi weight %v", r.ID, r.Weight)
	}
	return nil
}
