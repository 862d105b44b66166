package dist

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/harness/clock"
	"repro/internal/overlay"
	"repro/internal/qos"
	"repro/internal/substrate"
)

// unprunedDeputy scores returns as the deputy did before its bound: every
// return unrolled, stacked and scored, with its own kernel and scratch.
type unprunedDeputy struct {
	kern   *core.Kernel
	routes []overlay.Route
	assign []component.ComponentID
	avails []qos.Resources
}

func (u *unprunedDeputy) score(n *node, p *request, ret *hopRecord) (float64, bool) {
	req := &p.req
	if ret.acc.MaxRatio(req.QoSReq) > 1 {
		return 0, false
	}
	k := len(p.plan.Order)
	u.assign, u.avails = make([]component.ComponentID, k), make([]qos.Resources, k)
	last := ret
	for i := k - 1; i >= 0; i, last = i-1, last.parent {
		if last == nil {
			return 0, false
		}
		u.assign[p.plan.Order[i]] = last.chosen
		u.avails[i] = last.avail
	}
	if last != nil {
		return 0, false
	}
	routes, ok := n.c.routesOf(u.routes, req, u.assign)
	u.routes = routes
	if !ok {
		return 0, false
	}
	nodes, links := u.kern.Stack(req, u.assign, routes)
	for i, gpos := range p.plan.Order {
		host := n.c.catalog.Component(u.assign[gpos]).Node
		for j := range nodes {
			if nodes[j].Node == host {
				nodes[j].Avail = u.avails[i]
				break
			}
		}
	}
	for j := range links {
		links[j].Avail = n.c.links.LinkAvailable(links[j].Link)
	}
	return u.kern.Score(req, u.assign, routes, core.PhiSum)
}

// decisionCheck runs before every step of a stepped cluster: when the
// step is about to decide a request, it holds the deputy's decision to
// the unpruned one over the same returns.
type decisionCheck struct {
	t                *testing.T
	ref              *unprunedDeputy
	decisions        int
	returns, skipped int
}

func (d *decisionCheck) before(c *Cluster, id int) {
	n := c.nodes[id]
	m, ok := n.mailbox.peek()
	if !ok || m.kind != msgDecide || c.faults.Down(id) {
		return // no decision, or the node is (or goes) down and drops it
	}
	p, ok := n.pending[m.reqID]
	if !ok || p.comp != nil {
		return
	}
	d.decisions++
	var (
		want    *hopRecord
		wantPhi float64
	)
	for _, ret := range p.returns {
		phi, ok := d.ref.score(n, p, ret)
		// What the deputy's bound does with ret, against the incumbent it
		// has at that point: the unpruned one, as long as the two agree.
		skip := want != nil && ret.acc.MaxRatio(p.req.QoSReq) <= 1 && n.unroll(&p.plan, ret) &&
			core.BoundExceeds(core.PhiSum, &p.req, n.bound(p), wantPhi)
		d.returns++
		if skip {
			d.skipped++
			if ok && phi < wantPhi {
				d.t.Errorf("request %d: a skipped return scores %.17g, below the incumbent %.17g", p.req.ID, phi, wantPhi)
			}
		}
		if ok && (want == nil || phi < wantPhi) {
			want, wantPhi = ret, phi
		}
	}
	got, gotPhi := n.decide(p)
	if got != want || math.Float64bits(gotPhi) != math.Float64bits(wantPhi) {
		d.t.Errorf("request %d: deputy picked %p phi %.17g, unpruned %p phi %.17g", p.req.ID, got, gotPhi, want, wantPhi)
	}
}

// peek returns the oldest queued message without taking it.
func (b *mailbox) peek() (message, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.depth.Load() == 0 {
		return message{}, false
	}
	return b.buf[b.head], true
}

func (d *decisionCheck) share() float64 { return float64(d.skipped) / float64(max(d.returns, 1)) }

// TestDeputyBoundKeepsTheDecision: the deputy skips a return whose node
// terms alone exceed the incumbent's phi, before stacking or scoring it.
// At every decision of the dist_stepped request mix and of a fault mix
// shaped like the harness's (loss, duplication, delay, outages, two
// requests in flight), the decision is held to scoring every return: the
// same winning return, the same phi bits, and no skipped return that
// qualifies scores below the incumbent it was skipped against.
func TestDeputyBoundKeepsTheDecision(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the dist_stepped substrate")
	}
	t.Run("stepped mix", func(t *testing.T) {
		cy := newSteppedCycler(t, 150, nil)
		d := &decisionCheck{t: t, ref: &unprunedDeputy{kern: core.NewKernel(cy.s.cluster.catalog)}}
		cy.s.before = d.before
		for i := 0; i < 500; i++ {
			cy.cycle()
		}
		t.Logf("%d decisions, %d of %d returns skipped (%.1f %%)", d.decisions, d.skipped, d.returns, 100*d.share())
		if d.decisions < 500 || d.skipped == 0 {
			t.Errorf("%d decisions, %d returns skipped: the check saw too little", d.decisions, d.skipped)
		}
	})
	t.Run("fault mix", func(t *testing.T) {
		total := &decisionCheck{}
		for seed := int64(1); seed <= 40; seed++ {
			d := faultMixDecisions(t, seed)
			total.decisions += d.decisions
			total.returns += d.returns
			total.skipped += d.skipped
		}
		t.Logf("%d decisions, %d of %d returns skipped (%.1f %%)", total.decisions, total.skipped, total.returns, 100*total.share())
		if total.skipped == 0 {
			t.Errorf("%d decisions, no return skipped: the check saw too little", total.decisions)
		}
	})
}

// faultMixDecisions drives one seed of a fault mix shaped like the
// harness scenarios on their eight-node bed under a decisionCheck.
func faultMixDecisions(t *testing.T, seed int64) *decisionCheck {
	rng := rand.New(rand.NewSource(seed))
	clk := clock.NewVirtual()
	cfg := DefaultConfig()
	cfg.Config = substrate.Config{Seed: seed, IPNodes: 64, OverlayNodes: 8, NeighborsPerNode: 3,
		NumFunctions: 4, ComponentsPerNode: 2, NodeCapacity: qos.Resources{CPU: 100, Memory: 1000}}
	cfg.Clock = clk
	cfg.Faults = &faults.Config{Seed: seed, DropProb: rng.Float64() * 0.25, DupProb: rng.Float64() * 0.15,
		MaxDelay: time.Duration(rng.Int63n(int64(cfg.HoldTTL / 4))),
		Crashes:  faults.RandomCrashes(seed, cfg.OverlayNodes, rng.Intn(3), 2*time.Second, 300*time.Millisecond)}
	c, err := NewUnstarted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := &decisionCheck{t: t, ref: &unprunedDeputy{kern: core.NewKernel(c.catalog)}}
	s := &stepped{t: t, cluster: c, clk: clk, before: d.before}
	var live []*Composition
	for i := 0; i < 24; i++ {
		handles := make([]*SimHandle, 1+rng.Intn(2)) // two in flight about half the time
		for j := range handles {
			if handles[j], err = c.ComposeAsync(faultMixRequest(rng, cfg)); err != nil {
				t.Fatal(err)
			}
		}
		s.quiesce(func() bool {
			for _, h := range handles {
				if h.reply == nil {
					continue // decided
				}
				select {
				case out := <-h.reply:
					h.reply = nil
					if out.comp != nil {
						live = append(live, out.comp)
					}
				default:
					return false
				}
			}
			return true
		})
		kept := live[:0]
		for _, comp := range live {
			if rng.Float64() < 0.4 {
				c.Release(nil, comp)
			} else {
				kept = append(kept, comp)
			}
		}
		live = kept
		s.quiesce(func() bool { return true })
	}
	return d
}

// faultMixRequest draws a 2-4-function chain with demands that sometimes
// contend on the bed, as the harness scenarios do.
func faultMixRequest(rng *rand.Rand, cfg Config) *component.Request {
	length := 2 + rng.Intn(3)
	fns := make([]component.FunctionID, length)
	res := make([]qos.Resources, length)
	for i := range fns {
		fns[i] = component.FunctionID(rng.Intn(cfg.NumFunctions))
		res[i] = qos.Resources{CPU: 2 + rng.Float64()*10, Memory: 20 + rng.Float64()*100}
	}
	return &component.Request{
		Graph:        component.NewPathGraph(fns),
		QoSReq:       qos.Vector{Delay: 1e5, LossCost: qos.LossCost(0.9)},
		ResReq:       res,
		BandwidthReq: 20 + rng.Float64()*80,
		Client:       rng.Intn(cfg.OverlayNodes),
		Duration:     time.Hour,
	}
}
