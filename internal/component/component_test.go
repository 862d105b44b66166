package component

import (
	"slices"
	"testing"
	"time"

	"repro/internal/qos"
)

func mustBranchGraph(t *testing.T) *Graph {
	t.Helper()
	// Source F0, branches {F1, F2} and {F3}, sink F4 — the Figure 1(c)
	// shape.
	g, err := NewBranchGraph(0, []FunctionID{1, 2}, []FunctionID{3}, 4)
	if err != nil {
		t.Fatalf("NewBranchGraph: %v", err)
	}
	return g
}

func TestNewPathGraph(t *testing.T) {
	g := NewPathGraph([]FunctionID{5, 6, 7})
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(paths(g)) != 1 {
		t.Error("path graph not recognised as path")
	}
	if got := g.NumPositions(); got != 3 {
		t.Errorf("NumPositions = %d, want 3", got)
	}
	if src := g.Sources(); len(src) != 1 || src[0] != 0 {
		t.Errorf("Sources = %v, want [0]", src)
	}
	for p, sink := range []bool{false, false, true} {
		if got := g.Successors(p) == nil; got != sink {
			t.Errorf("position %d is a sink: %v, want %v", p, got, sink)
		}
	}
}

func TestNewBranchGraphShape(t *testing.T) {
	g := mustBranchGraph(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(paths(g)) == 1 {
		t.Error("branch graph recognised as path")
	}
	if got := g.NumPositions(); got != 5 {
		t.Fatalf("NumPositions = %d, want 5", got)
	}
	ps := paths(g)
	if len(ps) != 2 {
		t.Fatalf("paths = %v, want 2 paths", ps)
	}
	for _, p := range ps {
		if p[0] != 0 {
			t.Errorf("path %v does not start at source", p)
		}
		if p[len(p)-1] != g.NumPositions()-1 {
			t.Errorf("path %v does not end at sink", p)
		}
	}
}

func TestNewBranchGraphEmptyBranch(t *testing.T) {
	if _, err := NewBranchGraph(0, nil, []FunctionID{1}, 2); err == nil {
		t.Error("empty branch accepted")
	}
}

func TestGraphValidateErrors(t *testing.T) {
	tests := []struct {
		name string
		g    Graph
	}{
		{name: "empty", g: Graph{}},
		{name: "edge out of range", g: Graph{Functions: []FunctionID{0, 1}, Edges: []Edge{{From: 0, To: 5}}}},
		{name: "self loop", g: Graph{Functions: []FunctionID{0, 1}, Edges: []Edge{{From: 0, To: 0}}}},
		{name: "duplicate edge", g: Graph{Functions: []FunctionID{0, 1}, Edges: []Edge{{From: 0, To: 1}, {From: 0, To: 1}}}},
		{name: "cycle", g: Graph{Functions: []FunctionID{0, 1}, Edges: []Edge{{From: 0, To: 1}, {From: 1, To: 0}}}},
		{name: "disconnected", g: Graph{Functions: []FunctionID{0, 1, 2, 3}, Edges: []Edge{{From: 0, To: 1}, {From: 2, To: 3}}}},
		{name: "two sources", g: Graph{Functions: []FunctionID{0, 1, 2}, Edges: []Edge{{From: 0, To: 2}, {From: 1, To: 2}}}},
		{name: "two sinks", g: Graph{Functions: []FunctionID{0, 1, 2}, Edges: []Edge{{From: 0, To: 1}, {From: 0, To: 2}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err, ref := tt.g.Validate(), refValidate(&tt.g)
			if err == nil {
				t.Fatal("Validate accepted invalid graph")
			}
			if err.Error() != ref.Error() {
				t.Errorf("Validate says %q, the reference %q", err, ref)
			}
		})
	}
}

func TestTopoOrder(t *testing.T) {
	g := mustBranchGraph(t)
	var plan Plan
	if err := plan.Build(g); err != nil {
		t.Fatal(err)
	}
	order := plan.Order
	pos := make(map[int]int, len(order))
	for i, p := range order {
		pos[p] = i
	}
	if len(pos) != g.NumPositions() {
		t.Fatalf("TopoOrder covers %d positions, want %d", len(pos), g.NumPositions())
	}
	for _, e := range g.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %v violates topological order %v", e, order)
		}
	}
}

// TestPlanMatchesGraphQueries: the precomputed plan answers what the
// reference topological sort and Predecessors answer, element for
// element — a probe that reads the plan sums link QoS in the order one
// that asks the graph does.
func TestPlanMatchesGraphQueries(t *testing.T) {
	graphs := []*Graph{mustBranchGraph(t), NewPathGraph([]FunctionID{3, 1, 2}), NewPathGraph([]FunctionID{0}),
		// edges listed against position order: a sink with three predecessors
		{Functions: []FunctionID{0, 1, 2, 3}, Edges: []Edge{{2, 3}, {0, 1}, {0, 2}, {1, 3}, {0, 3}}}}
	for _, g := range graphs {
		var plan Plan
		if err := plan.Build(g); err != nil {
			t.Fatal(err)
		}
		order, _ := refTopoOrder(g)
		if !slices.Equal(plan.Order, order) {
			t.Errorf("Plan.Order = %v, reference %v", plan.Order, order)
		}
		for p := 0; p < g.NumPositions(); p++ {
			if plan.Order[plan.Index[p]] != p {
				t.Errorf("Index[%d] = %d does not invert Order %v", p, plan.Index[p], plan.Order)
			}
			if !slices.Equal(plan.Preds[p], g.Predecessors(p)) {
				t.Errorf("Preds[%d] = %v, Predecessors = %v", p, plan.Preds[p], g.Predecessors(p))
			}
		}
	}
	cyclic := &Graph{Functions: []FunctionID{0, 1}, Edges: []Edge{{0, 1}, {1, 0}}}
	var plan Plan
	if err := plan.Build(cyclic); err == nil {
		t.Error("Build accepted a cyclic graph")
	}
}

// TestPlanBuildAllocations: a warm plan rebuilt for a path or for a
// two-branch DAG allocates nothing — what one validation per request costs
// a walk that keeps its plan.
func TestPlanBuildAllocations(t *testing.T) {
	var plan Plan
	for _, g := range []*Graph{NewPathGraph([]FunctionID{3, 1, 2, 4}), mustBranchGraph(t)} {
		build := func() {
			if err := plan.Build(g); err != nil {
				t.Fatal(err)
			}
		}
		build() // size the plan
		if allocs := testing.AllocsPerRun(100, build); allocs != 0 {
			t.Errorf("Plan.Build of %d positions allocates %.1f per call when warm, want 0", g.NumPositions(), allocs)
		}
	}
}

// graphSink keeps the graphs an allocation test builds on the heap, as
// a caller's are.
var graphSink *Graph

// TestGraphConstructorAllocations pins each constructor at the Graph,
// its Functions and its Edges, sized once: a path of one position has
// no edges and makes 2. Growing the slices by append made ≈ 9 for a
// branch graph and 4 for a 4-edge path.
func TestGraphConstructorAllocations(t *testing.T) {
	fns := []FunctionID{3, 1, 2, 4, 6, 5}
	for n := 1; n <= len(fns); n++ {
		want := 3.0
		if n == 1 {
			want = 2
		}
		if allocs := testing.AllocsPerRun(100, func() { graphSink = NewPathGraph(fns[:n]) }); allocs != want {
			t.Errorf("NewPathGraph of %d positions allocates %.1f, want %v", n, allocs, want)
		}
	}
	for _, split := range [][2]int{{1, 2}, {2, 1}} {
		b1, b2 := fns[1:1+split[0]], fns[1+split[0]:4]
		g, err := NewBranchGraph(fns[0], b1, b2, fns[4])
		if err != nil || len(g.Edges) != len(g.Functions) || len(g.Edges) != cap(g.Edges) {
			t.Fatalf("NewBranchGraph(%v) = %+v, %v; want one edge per position, sized once", split, g, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { graphSink, _ = NewBranchGraph(fns[0], b1, b2, fns[4]) }); allocs != 3 {
			t.Errorf("NewBranchGraph with branches %v allocates %.1f, want 3", split, allocs)
		}
	}
}

func TestSuccessorsPredecessors(t *testing.T) {
	g := mustBranchGraph(t)
	// Source 0 fans out to both branch heads.
	if got := g.Successors(0); len(got) != 2 {
		t.Errorf("Successors(source) = %v, want 2", got)
	}
	// Sink has two predecessors.
	if got := g.Predecessors(g.NumPositions() - 1); len(got) != 2 {
		t.Errorf("Predecessors(sink) = %v, want 2", got)
	}
	if got := g.Predecessors(0); got != nil {
		t.Errorf("Predecessors(source) = %v, want none", got)
	}
}

func validRequest() *Request {
	return &Request{
		ID:           1,
		Graph:        NewPathGraph([]FunctionID{1, 2}),
		QoSReq:       qos.Vector{Delay: 100, LossCost: 0.1},
		ResReq:       []qos.Resources{{CPU: 1}, {CPU: 1}},
		BandwidthReq: 100,
		Duration:     5 * time.Minute,
	}
}

func TestRequestValidate(t *testing.T) {
	if err := validRequest().Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Request)
	}{
		{name: "nil graph", mutate: func(r *Request) { r.Graph = nil }},
		{name: "invalid graph", mutate: func(r *Request) { r.Graph = &Graph{} }},
		{name: "resource count mismatch", mutate: func(r *Request) { r.ResReq = r.ResReq[:1] }},
		{name: "negative bandwidth", mutate: func(r *Request) { r.BandwidthReq = -1 }},
		{name: "zero duration", mutate: func(r *Request) { r.Duration = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := validRequest()
			tt.mutate(r)
			if err := r.Validate(); err == nil {
				t.Error("Validate accepted invalid request")
			}
		})
	}
}

// paths enumerates every source-to-sink position sequence: the
// reference the graph tests read shapes from. A path graph yields one
// path, and no other valid graph does; the paper's two-branch DAGs
// yield two.
func paths(g *Graph) [][]int {
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
