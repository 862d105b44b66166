//go:build go1.24

package dist

import (
	"math/rand"
	"runtime"
	"testing"
	"weak"
)

// TestHopBlocksDieWithTheirRequest: once a request is decided, committed,
// released and its messages stepped out, nothing reaches its record or its
// hop blocks — not the deputy's pending table, its timers or its spare
// returns slice, not a late probe or a stepped message, not the
// composition, not a later request's records. A per-node slab, whose
// records' parents chained slabs across requests, failed this.
func TestHopBlocksDieWithTheirRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the dist_stepped substrate")
	}
	s := newStepped(t)
	rng := rand.New(rand.NewSource(3))
	var (
		first  weak.Pointer[hopRecord] // the first block's records
		record weak.Pointer[request]   // the pending state and everything else inline
	)
	for admitted := false; !admitted; {
		req := steppedRequest(rng, s.cluster.cfg, 0)
		h, err := s.cluster.ComposeAsync(req)
		if err != nil {
			t.Fatal(err)
		}
		s.step() // the deputy takes the compose and fans out
		rq := s.cluster.nodes[req.Client].pending[h.ReqID]
		block := rq.block.Load()
		first, record = weak.Make(&block.recs[0]), weak.Make(rq)
		var comp *Composition
		s.quiesce(func() bool {
			c, _, done := h.Poll()
			comp = c
			return done
		})
		if admitted = comp != nil; admitted {
			if block.used.Load() == 0 {
				t.Fatal("an admitted request accepted no probe into its first block")
			}
			s.release(req, comp)
		}
	}
	runtime.GC()
	if first.Value() != nil {
		t.Fatal("a released request's first hop block is still reachable")
	}
	if record.Value() != nil {
		t.Fatal("a released request's record is still reachable")
	}
	runtime.KeepAlive(s.cluster) // the cluster, not only the block, must outlive the GC
}
