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

// Sources returns positions with no predecessors.
func (g *Graph) Sources() []int {
	return g.boundary(func(e Edge) int { return e.To })
}

// Sinks returns positions with no successors.
func (g *Graph) Sinks() []int {
	return g.boundary(func(e Edge) int { return e.From })
}

func (g *Graph) boundary(pick func(Edge) int) []int {
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

// Validate checks structural sanity: at least one position, edges in
// range, no self-loops or duplicate edges, acyclic, weakly connected,
// exactly one source and one sink. Composition probing relies on the
// single-source/single-sink shape to merge probed branch paths (§3.3).
func (g *Graph) Validate() error {
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
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	if n > 1 {
		if src := g.Sources(); len(src) != 1 {
			return fmt.Errorf("component: graph has %d sources, want 1", len(src))
		}
		if snk := g.Sinks(); len(snk) != 1 {
			return fmt.Errorf("component: graph has %d sinks, want 1", len(snk))
		}
		if !g.weaklyConnected() {
			return fmt.Errorf("component: graph is not connected")
		}
	}
	return nil
}

func (g *Graph) weaklyConnected() bool {
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

// TopoOrder returns a topological ordering of positions, or an error when
// the graph contains a cycle.
func (g *Graph) TopoOrder() ([]int, error) {
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
	// element for element what Predecessors(p) returns.
	Preds [][]int
}

// Plan computes the graph's walk plan, or an error when the graph
// contains a cycle.
func (g *Graph) Plan() (*Plan, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := g.NumPositions()
	index := make([]int, n)
	for i, p := range order {
		index[p] = i
	}
	// Bucket the edges into one flat backing array: a count pass sizes
	// each position's window, a fill pass appends into it.
	counts := make([]int, n)
	for _, e := range g.Edges {
		counts[e.To]++
	}
	flat := make([]int, len(g.Edges))
	preds := make([][]int, n)
	off := 0
	for p := range preds {
		preds[p] = flat[off : off : off+counts[p]]
		off += counts[p]
	}
	for _, e := range g.Edges {
		preds[e.To] = append(preds[e.To], e.From)
	}
	return &Plan{Order: order, Index: index, Preds: preds}, nil
}

// IsPath reports whether the graph is a simple chain.
func (g *Graph) IsPath() bool {
	for p := 0; p < g.NumPositions(); p++ {
		if len(g.Successors(p)) > 1 || len(g.Predecessors(p)) > 1 {
			return false
		}
	}
	return true
}

// Paths enumerates every source-to-sink position sequence. A path graph
// yields one path; the paper's two-branch DAGs yield two. Probes traverse
// these paths independently and the deputy merges them (§3.3, Figure 2).
func (g *Graph) Paths() [][]int {
	var out [][]int
	var walk func(p int, acc []int)
	walk = func(p int, acc []int) {
		acc = append(acc, p)
		succ := g.Successors(p)
		if len(succ) == 0 {
			path := make([]int, len(acc))
			copy(path, acc)
			out = append(out, path)
			return
		}
		for _, s := range succ {
			walk(s, acc)
		}
	}
	for _, s := range g.Sources() {
		walk(s, nil)
	}
	return out
}

// NewPathGraph builds a simple chain over the given functions.
func NewPathGraph(functions []FunctionID) *Graph {
	g := &Graph{Functions: append([]FunctionID(nil), functions...)}
	for i := 1; i < len(functions); i++ {
		g.Edges = append(g.Edges, Edge{From: i - 1, To: i})
	}
	return g
}

// NewBranchGraph builds the paper's two-branch DAG shape: a shared source,
// two parallel internal branches, and a shared sink (Figure 1(b)/(c)).
// branch1 and branch2 must each be non-empty.
func NewBranchGraph(source FunctionID, branch1, branch2 []FunctionID, sink FunctionID) (*Graph, error) {
	if len(branch1) == 0 || len(branch2) == 0 {
		return nil, fmt.Errorf("component: branch graphs need non-empty branches")
	}
	g := &Graph{Functions: []FunctionID{source}}
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
	if r.Graph == nil {
		return fmt.Errorf("component: request %d has no function graph", r.ID)
	}
	if err := r.Graph.Validate(); err != nil {
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
