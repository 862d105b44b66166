package dist

import (
	"testing"
	"time"

	"repro/internal/state"
)

// TestLinkHoldsExpireOnTheVirtualClock: the link ledger reads the
// cluster's clock. A probe's link holds placed on a stepped cluster stay
// counted until the virtual clock reaches their expiry, HoldTTL after the
// cluster was built, and the links' availability then comes back, with no
// wall time to speak of passing. A ledger reading the wall clock either
// sees the holds expired at once or never sees them expire.
func TestLinkHoldsExpireOnTheVirtualClock(t *testing.T) {
	s := newStepped(t)
	c := s.cluster
	var links []int
	for to := 1; to < c.NumNodes() && len(links) < 2; to++ {
		if r, ok := c.mesh.RouteBetween(0, to); ok && !r.CoLocated {
			links = r.Links
		}
	}
	if len(links) == 0 {
		t.Fatal("no route from node 0 crosses an overlay link")
	}
	free := make([]float64, len(links))
	for i, link := range links {
		free[i] = c.links.LinkAvailable(link)
	}

	// The ledger's clock reads zero when the cluster is built, and the
	// virtual clock has not moved since.
	const bw = 10.0
	owner := state.Owner(77)
	for _, link := range links {
		if !c.links.HoldLink(owner, 1, link, bw, c.cfg.HoldTTL) {
			t.Fatalf("hold of %v on link %d refused", bw, link)
		}
	}
	check := func(when string, held float64) {
		t.Helper()
		for i, link := range links {
			if got, want := c.links.LinkAvailable(link), free[i]-held; got != want {
				t.Fatalf("%s: link %d has %v available, want %v", when, link, got, want)
			}
		}
	}
	check("just placed", bw)
	s.clk.Advance(c.cfg.HoldTTL - time.Nanosecond)
	check("a nanosecond before HoldTTL", bw)
	s.clk.Advance(time.Nanosecond)
	check("at HoldTTL", 0)
}
