package overlay

import (
	"testing"

	"repro/internal/qos"
)

// FuzzRouteTable lays out the routes of a hand-assembled mesh, on one
// worker and on two, and holds every ordered pair to the reference
// reconstruction (routeDiff). The mesh has 2-40 nodes; each three bytes
// of raw add a link between two nodes with a delay of 0, 1 or 2, so
// islands, parallel links, equal-delay ties and zero-delay links all
// occur. Loss costs are tenths, whose float sums depend on their order.
// Seeds under testdata/fuzz/FuzzRouteTable: two nodes, two islands,
// zero-delay ties, parallel links, a chain of 40, 40 nodes with 120
// random links, and 40 nodes with none.
func FuzzRouteTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, nodes uint8, raw []byte) {
		n := 2 + int(nodes)%39
		m := &Mesh{ipNode: make([]int, n), adj: make([][]halfLink, n)}
		for i := 0; i+2 < len(raw) && len(m.links) < 120; i += 3 {
			a, b := int(raw[i])%n, int(raw[i+1])%n
			if a == b {
				continue
			}
			a, b = min(a, b), max(a, b)
			id := len(m.links)
			m.links = append(m.links, Link{ID: id, A: a, B: b, QoS: qos.Vector{
				Delay:    float64(raw[i+2] % 3),
				LossCost: float64(raw[i+2]%7+1) / 10,
			}})
			m.adj[a] = append(m.adj[a], halfLink{to: b, link: id})
			m.adj[b] = append(m.adj[b], halfLink{to: a, link: id})
		}
		ref := refRoutes(m)
		for _, workers := range []int{1, 2} {
			if err := m.computeRouting(workers); err != nil {
				t.Fatal(err)
			}
			if diff := routeDiff(m, ref); diff != "" {
				t.Fatalf("%d workers: %s", workers, diff)
			}
		}
	})
}
