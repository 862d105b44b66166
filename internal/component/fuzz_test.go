package component

import (
	"slices"
	"testing"
)

// FuzzGraphValidate holds Plan.Build to the validation it replaced
// (refValidate): on arbitrary edge lists both accept or both reject, with
// the same error text, and an accepted graph's plan is refTopoOrder's
// order, its inverse, and Predecessors per position, element for element.
// One plan serves every input, so storage left over from a larger graph
// is exercised. Anything accepted also has a consistent path
// decomposition.
func FuzzGraphValidate(f *testing.F) {
	f.Add(3, []byte{0, 1, 1, 2})
	f.Add(1, []byte{})
	f.Add(5, []byte{0, 1, 0, 2, 1, 3, 2, 3})
	f.Add(2, []byte{0, 1, 1, 0})
	f.Add(4, []byte{0, 1, 2, 3})                   // disconnected: two sources
	f.Add(4, []byte{2, 3, 0, 1, 0, 2, 1, 3, 0, 3}) // a sink with three predecessors, edges out of order
	f.Add(6, []byte{0, 1, 1, 2, 0, 3, 3, 4, 4, 2, 2, 5})
	var plan Plan
	f.Fuzz(func(t *testing.T, n int, rawEdges []byte) {
		if n < 0 || n > 32 {
			return
		}
		g := &Graph{Functions: make([]FunctionID, n)}
		for i := range g.Functions {
			g.Functions[i] = FunctionID(i)
		}
		for i := 0; i+1 < len(rawEdges) && i < 64; i += 2 {
			g.Edges = append(g.Edges, Edge{From: int(rawEdges[i]) % 33, To: int(rawEdges[i+1]) % 33})
		}
		err, ref := plan.Build(g), refValidate(g)
		if (err == nil) != (ref == nil) || err != nil && err.Error() != ref.Error() {
			t.Fatalf("Build says %v, the reference %v", err, ref)
		}
		if err != nil {
			return
		}
		order, err := refTopoOrder(g)
		if err != nil {
			t.Fatalf("validated graph has no topo order: %v", err)
		}
		if !slices.Equal(plan.Order, order) {
			t.Fatalf("Order = %v, reference %v", plan.Order, order)
		}
		if len(plan.Index) != n || len(plan.Preds) != n {
			t.Fatalf("plan covers %d/%d positions of %d", len(plan.Index), len(plan.Preds), n)
		}
		for p := 0; p < n; p++ {
			if plan.Order[plan.Index[p]] != p {
				t.Fatalf("Index[%d] = %d does not invert Order %v", p, plan.Index[p], plan.Order)
			}
			if !slices.Equal(plan.Preds[p], g.Predecessors(p)) {
				t.Fatalf("Preds[%d] = %v, Predecessors = %v", p, plan.Preds[p], g.Predecessors(p))
			}
		}
		for _, path := range g.Paths() {
			if len(path) == 0 {
				t.Fatal("empty source-sink path")
			}
			for _, pos := range path {
				if pos < 0 || pos >= n {
					t.Fatalf("path position %d out of range", pos)
				}
			}
		}
	})
}
