package core

import (
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/state"
)

// rivalSink plays another caller on the shared ledger. Random and Static
// visit their one composition with a verification probe and hold what it
// visited afterwards, hop by hop; the sink takes a resource of that
// composition in between, at the moment the probe's hop at position
// fillAt is held, so the next hop is refused at its node or at its link.
type rivalSink struct {
	env    Env
	c      *Composer
	fillAt int
	link   bool // fill the first link between positions 0 and 1, not position 1's node
	nodes  map[int]int
	filled bool
}

const rivalOwner = state.Owner(1 << 40)

func (s *rivalSink) Emit(e obs.Event) {
	switch e.Type {
	case obs.EventProbeSpawned:
		s.nodes[e.Pos] = e.Node
	case obs.EventHoldAcquired:
		if e.Pos != s.fillAt {
			return
		}
		now, expires := s.env.Now(), s.env.Now()+time.Minute
		if !s.link {
			n1 := s.nodes[1]
			left := s.env.Ledger.NodeAvailableForAt(now, rivalOwner, n1)
			s.filled, _ = s.env.Ledger.HoldNodeTrackedAt(now, rivalOwner, 0, n1, left, expires)
			return
		}
		if route := s.c.route(s.nodes[0], s.nodes[1]); len(route.Links) > 0 {
			left := s.env.Ledger.LinkAvailableForAt(now, rivalOwner, route.Links[0])
			s.filled, _ = s.env.Ledger.HoldLinkTrackedAt(now, rivalOwner, 0, route.Links[0], left, expires)
		}
	}
}

// TestDirectProbeReleasesRefusedHolds checks Probe's promise for the
// Random and Static heuristics: when a hold of the verified composition
// is refused, every hold the request placed has been given back by the
// time Probe returns. Once the rival gives its hold back too, every node
// and every link reads what it read before the request.
func TestDirectProbeReleasesRefusedHolds(t *testing.T) {
	for _, alg := range []Algorithm{AlgRandom, AlgStatic} {
		for _, tc := range []struct {
			name   string
			fillAt int
			link   bool
		}{
			{"node hold refused", 0, false},
			{"link hold refused", 0, true},
		} {
			t.Run(alg.String()+"/"+tc.name, func(t *testing.T) {
				env, _ := testEnv(t, 7)
				sink := &rivalSink{env: env, fillAt: tc.fillAt, link: tc.link, nodes: map[int]int{}}
				env.Tracer = obs.New(sink)
				c := mustComposer(t, env, Config{Algorithm: alg, HoldTTL: time.Minute, TransientAllocation: true})
				sink.c = c
				req := &component.Request{
					ID:     51,
					Graph:  component.NewPathGraph([]component.FunctionID{0, 1}),
					QoSReq: qos.Vector{Delay: 1e6, LossCost: qos.LossCost(0.9)},
					ResReq: []qos.Resources{
						{CPU: 10, Memory: 100},
						{CPU: 10, Memory: 100},
					},
					BandwidthReq: 10,
					Client:       0,
					Duration:     time.Minute,
				}
				before := snapshotLedger(env)

				out, err := c.Probe(req)
				if err != nil {
					t.Fatal(err)
				}
				if tc.link && sink.nodes[0] == sink.nodes[1] {
					t.Fatal("the composition is co-located: no link to refuse")
				}
				if !sink.filled {
					t.Fatal("the probe placed no hold for the rival to race")
				}
				if out.Best != nil {
					t.Fatalf("%s admitted a composition whose holds were refused", alg)
				}
				env.Ledger.ReleaseOwner(rivalOwner)
				after := snapshotLedger(env)
				for n := range before.nodes {
					if after.nodes[n] != before.nodes[n] {
						t.Errorf("node %d has %v available after the refused probe, %v before (hold leaked)", n, after.nodes[n], before.nodes[n])
					}
				}
				for k := range before.links {
					if after.links[k] != before.links[k] {
						t.Errorf("link %d has %v available after the refused probe, %v before (hold leaked)", k, after.links[k], before.links[k])
					}
				}
				if err := env.Ledger.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
