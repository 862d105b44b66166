package harness

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/harness/clock"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/runtime"
	"repro/internal/state"
	"repro/internal/workload"
)

// MultiAppConfig parameterises one seeded concurrent multi-application
// run: competing tenants drawn from a workload scenario family, each
// under a per-tenant admission quota, sharing one runtime cluster. The
// seed alone replays the run.
type MultiAppConfig struct {
	// Seed drives the substrate, the arrival plan, and request shapes.
	Seed int64
	// Family selects the scenario family. Zero means flash-crowd.
	Family workload.Family
	// Tenants is the number of competing applications. Zero means 3.
	Tenants int
	// Ticks is the episode length in admission rounds. Zero means 18.
	Ticks int
	// Load is the base expected arrivals per tenant per tick. Zero
	// means 1.5.
	Load float64
	// Oracle enables the replica reference composer: every admission
	// decision is replayed through an independent core.AlgOptimal engine
	// over a lockstep ledger and checked for admission, composition,
	// phi, and quota parity.
	Oracle bool
}

// MultiAppReport is the outcome of one multi-application episode.
type MultiAppReport struct {
	Seed    int64
	Family  string
	Tenants int
	// Arrivals / Admitted / QuotaRejected / Refused partition the
	// episode's requests: every arrival is admitted, rejected by its
	// tenant quota, or refused by the composition engine.
	Arrivals      int
	Admitted      int
	QuotaRejected int
	Refused       int
	// TenantArrivals / TenantAdmitted split the partition per tenant.
	TenantArrivals []int
	TenantAdmitted []int
	// Fairness is Jain's index over per-tenant admission success rates
	// at the end of the episode.
	Fairness float64
	// MinLiveFairness is the lowest weighted Jain index over live
	// per-tenant CPU shares observed at any audited tick (1 when no
	// tick had live tenant usage).
	MinLiveFairness float64
	// Log narrates the schedule — the failing-seed replay transcript.
	Log []string
}

// multiAppSession is the harness's book entry for one live session:
// exactly what the conservation audit must find committed in the
// ledger, and what teardown must release.
type multiAppSession struct {
	id      runtime.SessionID
	reqID   int64
	tenant  int
	closeAt int
	demand  runtime.TenantUsage
	// nodeDemand / linkDemand are the session's committed footprint,
	// derived from its described placement at admission (compositions
	// never migrate in this scenario).
	nodeDemand map[int]qos.Resources
	linkDemand map[int]float64
}

// match is the multi-application oracle's check: the replica runs the
// same exhaustive engine as the cluster under test (core.AlgOptimal,
// transient holds on, same phi mode and node classes) over a ledger
// kept in lockstep, outage blackouts included, so it must reproduce the
// runtime's decision exactly: admission parity, the identical winning
// composition, and equal phi. Any divergence means admission stopped
// being a pure function of the committed resource state. On agreement
// it adopts the runtime's placement. desc is nil when the runtime
// refused the request.
func (r *replica) match(req *component.Request, desc *runtime.Composition) error {
	outcome, err := r.composer.Probe(req)
	if err != nil {
		return fmt.Errorf("oracle probe for request %d: %w", req.ID, err)
	}
	if desc == nil {
		if outcome.Success() {
			r.composer.Abort(req.ID)
			return fmt.Errorf("request %d: runtime refused but the replica oracle found a qualified composition (phi=%v)",
				req.ID, outcome.Best.Phi)
		}
		return nil
	}
	if !outcome.Success() {
		return fmt.Errorf("request %d: runtime admitted (phi=%v) but the replica oracle found no qualified composition",
			req.ID, desc.Phi)
	}
	if math.Abs(desc.Phi-outcome.Best.Phi) > phiSlack {
		return fmt.Errorf("request %d: runtime phi %v disagrees with the replica optimum %v",
			req.ID, desc.Phi, outcome.Best.Phi)
	}
	comps := make([]component.ComponentID, len(desc.Components))
	for pos, pc := range desc.Components {
		if pc.Component != outcome.Best.Components[pos] {
			return fmt.Errorf("request %d: runtime placed component %d at position %d, replica chose %d",
				req.ID, pc.Component, pos, outcome.Best.Components[pos])
		}
		comps[pos] = pc.Component
	}
	return r.adopt(req, comps, desc.QoS, desc.Phi)
}

// shadowDemand mirrors the runtime's quota accounting of a request: one
// session, the summed per-position resources (in position order, so the
// float arithmetic is identical), and bandwidth per virtual link.
func shadowDemand(graph *component.Graph, resReq []qos.Resources, bandwidthKbps float64) runtime.TenantUsage {
	u := runtime.TenantUsage{Sessions: 1}
	for _, r := range resReq {
		u.CPU += r.CPU
		u.Memory += r.Memory
	}
	u.BandwidthKbps = bandwidthKbps * float64(len(graph.Edges))
	return u
}

// shadowOver mirrors the runtime's quota admission decision (same
// dimension order, same strict comparisons) against the harness's own
// usage books — the independent predictor quota parity is checked
// against.
func shadowOver(limit runtime.TenantQuota, used, demand runtime.TenantUsage) bool {
	switch {
	case limit.MaxSessions > 0 && used.Sessions+demand.Sessions > limit.MaxSessions:
		return true
	case limit.MaxCPU > 0 && used.CPU+demand.CPU > limit.MaxCPU:
		return true
	case limit.MaxMemory > 0 && used.Memory+demand.Memory > limit.MaxMemory:
		return true
	case limit.MaxBandwidthKbps > 0 && used.BandwidthKbps+demand.BandwidthKbps > limit.MaxBandwidthKbps:
		return true
	}
	return false
}

func addUsage(u, d runtime.TenantUsage) runtime.TenantUsage {
	u.Sessions += d.Sessions
	u.CPU += d.CPU
	u.Memory += d.Memory
	u.BandwidthKbps += d.BandwidthKbps
	return u
}

func subUsage(u, d runtime.TenantUsage) runtime.TenantUsage {
	u.Sessions -= d.Sessions
	u.CPU -= d.CPU
	u.Memory -= d.Memory
	u.BandwidthKbps -= d.BandwidthKbps
	return u
}

// tenantQuotaFor sizes tenant i's quota so contention is real: roughly
// three quarters of the tenant's steady-state M/G/inf occupancy
// (load x lifetime), floored at two sessions, with a CPU cap scaled to
// the session cap. Across the seed sweep every family produces genuine
// quota rejections without starving admission entirely.
func tenantQuotaFor(load float64, lifetime int) runtime.TenantQuota {
	sessions := int(0.75 * load * float64(lifetime))
	if sessions < 2 {
		sessions = 2
	}
	return runtime.TenantQuota{
		MaxSessions: sessions,
		MaxCPU:      float64(sessions) * 18,
	}
}

// phiModeFor pairs each family with the phi objective it exercises:
// diurnal's staggered priorities run the weighted objective,
// hetero-nodes runs the bottleneck (max-min surrogate) objective, the
// rest run the paper's Eq. 1 sum.
func phiModeFor(f workload.Family) core.PhiMode {
	switch f {
	case workload.FamilyDiurnal:
		return core.PhiWeighted
	case workload.FamilyHetero:
		return core.PhiBottleneck
	default:
		return core.PhiSum
	}
}

// RunMultiAppScenario executes one seeded multi-application episode end
// to end and audits, at every virtual-clock tick:
//
//   - the ledger's conservation invariants (Eqs. 4-5);
//   - the books (Audit): every node's and link's consumed capacity
//     equals the sum of live sessions' committed demands, derived here
//     from each admission's placement, plus injected outage load —
//     tenants can crowd each other out but never mint or leak capacity —
//     and a blacked-out node admits nothing;
//   - quota-never-exceeded: the runtime's per-tenant usage equals the
//     harness's independent books and respects every configured limit;
//   - fairness-index bounds: the weighted Jain index over live CPU
//     shares stays in [1/n, 1].
//
// With cfg.Oracle, every admission decision is additionally replayed
// through the exhaustive reference composer (admission, phi, and quota
// parity). At teardown the last audit, with no session and no blackout
// left, is the full per-class recovery check.
func RunMultiAppScenario(cfg MultiAppConfig) (*MultiAppReport, error) {
	if cfg.Family == 0 {
		cfg.Family = workload.FamilyFlashCrowd
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 3
	}
	if cfg.Ticks <= 0 {
		cfg.Ticks = 18
	}
	if cfg.Load <= 0 {
		cfg.Load = 1.5
	}

	sys := bed(cfg.Seed)
	plan, err := workload.NewMultiAppPlan(workload.MultiAppPlanConfig{
		Family:       cfg.Family,
		Seed:         cfg.Seed,
		Tenants:      cfg.Tenants,
		Ticks:        cfg.Ticks,
		Load:         cfg.Load,
		Tick:         time.Second,
		NumNodes:     sys.OverlayNodes,
		NodeCapacity: sys.NodeCapacity,
	})
	if err != nil {
		return nil, err
	}

	vc := clock.NewVirtual()
	reg := obs.NewRegistry()
	phi := phiModeFor(cfg.Family)
	rcfg := runtime.DefaultConfig()
	rcfg.Config = sys
	rcfg.NodeCapacities = plan.NodeClasses
	rcfg.Algorithm = core.AlgOptimal
	rcfg.ProbingRatio = 1
	rcfg.Phi = phi
	rcfg.Clock = vc
	rcfg.Registry = reg
	c, err := runtime.NewCluster(rcfg)
	if err != nil {
		return nil, err
	}
	defer c.Shutdown()

	quotas := make([]runtime.TenantQuota, cfg.Tenants)
	for i := range plan.Tenants {
		quotas[i] = tenantQuotaFor(cfg.Load, plan.Tenants[i].Lifetime)
		c.SetTenantQuota(plan.Tenants[i].Tenant, quotas[i])
	}

	var oracle *replica
	if cfg.Oracle {
		oracle, err = newReplica(c, vc, sys.NodeCapacity, plan.NodeClasses, phi, true)
		if err != nil {
			return nil, err
		}
	}

	rep := &MultiAppReport{
		Seed:            cfg.Seed,
		Family:          cfg.Family.String(),
		Tenants:         cfg.Tenants,
		TenantArrivals:  make([]int, cfg.Tenants),
		TenantAdmitted:  make([]int, cfg.Tenants),
		MinLiveFairness: 1,
	}
	logf := func(format string, args ...interface{}) {
		rep.Log = append(rep.Log, fmt.Sprintf(format, args...))
	}
	fail := func(err error) (*MultiAppReport, error) {
		return rep, fmt.Errorf("seed %d family %s: %w", cfg.Seed, rep.Family, err)
	}

	wrng := rand.New(rand.NewSource(mix(cfg.Seed ^ 0x3a99)))
	weights := make([]float64, cfg.Tenants)
	shadow := make([]runtime.TenantUsage, cfg.Tenants)
	for i := range plan.Tenants {
		weights[i] = plan.Tenants[i].Weight
	}

	// Outage windows in tick units; each crashed node's blackout is an
	// injected load of its residual at the start, and the audit counts
	// the node down for the window.
	type blackout struct {
		node       int
		owner      int64
		start, end int
		active     bool
		load       qos.Resources
	}
	var blackouts []blackout
	for i, cr := range plan.Outages {
		start := int(cr.At / plan.Tick)
		end := int((cr.At + cr.Downtime) / plan.Tick)
		if end > plan.Ticks {
			end = plan.Ticks
		}
		blackouts = append(blackouts, blackout{
			node: cr.Node, owner: -(100 + int64(i)), start: start, end: end,
		})
	}

	var live []*multiAppSession
	var nextReq int64

	// newRequest draws one request shape from the scenario stream. The
	// client deputy is drawn here and pinned, so the oracle replays the
	// identical request.
	newRequest := func(tenant int) runtime.FindRequest {
		length := 2 + wrng.Intn(2)
		fns := make([]component.FunctionID, length)
		for i := range fns {
			fns[i] = component.FunctionID(wrng.Intn(rcfg.NumFunctions))
		}
		res := make([]qos.Resources, length)
		for i := range res {
			res[i] = qos.Resources{CPU: 2 + wrng.Float64()*6, Memory: 20 + wrng.Float64()*40}
		}
		return runtime.FindRequest{
			Tenant:        plan.Tenants[tenant].Tenant,
			Weight:        weights[tenant],
			PinClient:     true,
			Client:        wrng.Intn(sys.OverlayNodes),
			Graph:         component.NewPathGraph(fns),
			QoSReq:        qos.Vector{Delay: 1e5, LossCost: qos.LossCost(0.9)},
			ResReq:        res,
			BandwidthKbps: 20 + wrng.Float64()*40,
		}
	}

	// submit plays one arrival through the cluster and, when enabled,
	// the oracle, keeping the shadow books and the live list current.
	submit := func(tick, tenant int) error {
		r := newRequest(tenant)
		demand := shadowDemand(r.Graph, r.ResReq, r.BandwidthKbps)
		over := shadowOver(quotas[tenant], shadow[tenant], demand)
		rep.Arrivals++
		rep.TenantArrivals[tenant]++

		id, err := c.FindApp(r)
		switch {
		case err != nil && errors.Is(err, runtime.ErrQuotaExceeded):
			if !over {
				return fmt.Errorf("tick %d: runtime quota-rejected tenant %s but the shadow books had room (%+v + %+v vs %+v)",
					tick, r.Tenant, shadow[tenant], demand, quotas[tenant])
			}
			var qerr *runtime.QuotaError
			if !errors.As(err, &qerr) {
				return fmt.Errorf("tick %d: quota rejection is not a typed *QuotaError: %v", tick, err)
			}
			rep.QuotaRejected++
			logf("tick %d: tenant %s quota-rejected (%s)", tick, r.Tenant, qerr.Dimension)
			return nil
		case over:
			return fmt.Errorf("tick %d: shadow books predicted a quota rejection for tenant %s but runtime returned %v",
				tick, r.Tenant, err)
		}

		// Past the quota gate the composer ran; mirror its request for
		// the oracle replay.
		nextReq++
		req := &component.Request{
			ID:           nextReq,
			Graph:        r.Graph,
			QoSReq:       r.QoSReq,
			ResReq:       append([]qos.Resources(nil), r.ResReq...),
			BandwidthReq: r.BandwidthKbps,
			Client:       r.Client,
			Duration:     time.Hour,
			Tenant:       r.Tenant,
			Weight:       r.Weight,
		}
		if err != nil {
			if !errors.Is(err, runtime.ErrNoComposition) {
				return fmt.Errorf("tick %d: find: %w", tick, err)
			}
			rep.Refused++
			logf("tick %d: tenant %s refused (no composition)", tick, r.Tenant)
			if oracle != nil {
				if oerr := oracle.match(req, nil); oerr != nil {
					return fmt.Errorf("tick %d: %w", tick, oerr)
				}
			}
			return nil
		}

		desc, derr := c.Describe(id)
		if derr != nil {
			return fmt.Errorf("tick %d: describe fresh session %d: %w", tick, id, derr)
		}
		// The harness's request counter must stay in lockstep with the
		// cluster's, or the oracle replays drift onto wrong owner IDs.
		for _, a := range c.AuditSessions() {
			if a.ID == id && a.RequestID != nextReq {
				return fmt.Errorf("tick %d: session %d carries request %d, harness expected %d",
					tick, id, a.RequestID, nextReq)
			}
		}
		if oracle != nil {
			if oerr := oracle.match(req, &desc); oerr != nil {
				return fmt.Errorf("tick %d: %w", tick, oerr)
			}
		}
		shadow[tenant] = addUsage(shadow[tenant], demand)
		s := &multiAppSession{
			id:         id,
			reqID:      nextReq,
			tenant:     tenant,
			closeAt:    tick + plan.Tenants[tenant].Lifetime,
			demand:     demand,
			nodeDemand: map[int]qos.Resources{},
			linkDemand: map[int]float64{},
		}
		for _, pc := range desc.Components {
			d := s.nodeDemand[pc.Node]
			d.CPU += r.ResReq[pc.Position].CPU
			d.Memory += r.ResReq[pc.Position].Memory
			s.nodeDemand[pc.Node] = d
		}
		for _, e := range r.Graph.Edges {
			from := desc.Components[e.From].Node
			to := desc.Components[e.To].Node
			route, ok := c.Mesh().RouteBetween(from, to)
			if !ok {
				return fmt.Errorf("tick %d: session %d has no route %d->%d", tick, id, from, to)
			}
			if route.CoLocated {
				continue
			}
			for _, link := range route.Links {
				s.linkDemand[link] += r.BandwidthKbps
			}
		}
		live = append(live, s)
		rep.Admitted++
		rep.TenantAdmitted[tenant]++
		logf("tick %d: tenant %s admitted session %d (phi %.3f)", tick, r.Tenant, id, desc.Phi)
		return nil
	}

	closeSession := func(s *multiAppSession) error {
		if err := c.Close(s.id); err != nil {
			return fmt.Errorf("close session %d: %w", s.id, err)
		}
		if oracle != nil {
			oracle.composer.Release(s.reqID)
		}
		shadow[s.tenant] = subUsage(shadow[s.tenant], s.demand)
		return nil
	}

	// audit runs the per-tick checks: the books against the live
	// sessions' footprint plus blackout load, with the blackouts as the
	// nodes down; then the quota books and the fairness bounds.
	var books *Books
	audit := func(tick int) error {
		if err := c.CheckInvariants(); err != nil {
			return fmt.Errorf("tick %d: %w", tick, err)
		}
		if oracle != nil {
			if err := oracle.ledger.CheckInvariants(); err != nil {
				return fmt.Errorf("tick %d: oracle ledger: %w", tick, err)
			}
		}

		b := runtimeBooks(c)
		for _, s := range live {
			for n, d := range s.nodeDemand {
				b.NodeWant[n] = b.NodeWant[n].Add(d)
			}
			for l, bw := range s.linkDemand {
				b.LinkWant[l] += bw
			}
		}
		if len(blackouts) > 0 {
			b.Down = make([]bool, len(b.NodeCap))
		}
		for _, bo := range blackouts {
			if bo.active {
				b.NodeWant[bo.node] = b.NodeWant[bo.node].Add(bo.load)
				b.Down[bo.node] = true
			}
		}
		if err := Audit(books, b); err != nil {
			return fmt.Errorf("tick %d: %w", tick, err)
		}
		books = b

		// Quota-never-exceeded and usage parity with the shadow books.
		shares := make([]float64, cfg.Tenants)
		anyLive := false
		for i := range plan.Tenants {
			name := plan.Tenants[i].Tenant
			used := c.TenantUsageFor(name)
			if used.Sessions != shadow[i].Sessions ||
				math.Abs(used.CPU-shadow[i].CPU) > 1e-9 ||
				math.Abs(used.Memory-shadow[i].Memory) > 1e-9 ||
				math.Abs(used.BandwidthKbps-shadow[i].BandwidthKbps) > 1e-9 {
				return fmt.Errorf("tick %d: tenant %s usage %+v diverged from shadow books %+v",
					tick, name, used, shadow[i])
			}
			q := quotas[i]
			if (q.MaxSessions > 0 && used.Sessions > q.MaxSessions) ||
				(q.MaxCPU > 0 && used.CPU > q.MaxCPU+1e-9) ||
				(q.MaxMemory > 0 && used.Memory > q.MaxMemory+1e-9) ||
				(q.MaxBandwidthKbps > 0 && used.BandwidthKbps > q.MaxBandwidthKbps+1e-9) {
				return fmt.Errorf("tick %d: tenant %s usage %+v exceeds quota %+v", tick, name, used, q)
			}
			shares[i] = used.CPU
			if used.Sessions > 0 {
				anyLive = true
			}
		}

		// Fairness-index bounds over live weighted CPU shares.
		if anyLive {
			j := metrics.WeightedJainIndex(shares, weights)
			lo := 1 / float64(cfg.Tenants)
			if j < lo-1e-9 || j > 1+1e-9 {
				return fmt.Errorf("tick %d: weighted Jain index %v outside [%v, 1] for shares %v", tick, j, lo, shares)
			}
			if j < rep.MinLiveFairness {
				rep.MinLiveFairness = j
			}
		}
		return nil
	}

	for tick := 0; tick < plan.Ticks; tick++ {
		// Closes due this tick, in admission order.
		kept := live[:0]
		for _, s := range live {
			if s.closeAt <= tick {
				if err := closeSession(s); err != nil {
					return fail(fmt.Errorf("tick %d: %w", tick, err))
				}
				logf("tick %d: closed session %d (tenant %s)", tick, s.id, plan.Tenants[s.tenant].Tenant)
				continue
			}
			kept = append(kept, s)
		}
		live = kept

		// Outage windows ending, then starting, this tick.
		for i := range blackouts {
			b := &blackouts[i]
			if b.active && b.end <= tick {
				c.ReleaseLoad(b.owner)
				if oracle != nil {
					oracle.ledger.ReleaseSession(state.Owner(b.owner))
				}
				b.active = false
				logf("tick %d: node %d back from outage", tick, b.node)
			}
			if !b.active && b.start == tick && b.end > tick {
				avail := c.NodeResidual(b.node)
				if avail.CPU <= 0 && avail.Memory <= 0 {
					continue // already saturated; nothing to pin
				}
				b.load = avail
				pin := []state.NodeShare{{ID: b.node, Amount: avail}}
				if err := c.InjectLoad(b.owner, pin); err != nil {
					return fail(fmt.Errorf("tick %d: blackout node %d: %w", tick, b.node, err))
				}
				if oracle != nil {
					if err := oracle.ledger.CommitShares(state.Owner(b.owner), pin, nil); err != nil {
						return fail(fmt.Errorf("tick %d: oracle blackout node %d: %w", tick, b.node, err))
					}
				}
				b.active = true
				logf("tick %d: zone outage pins node %d (%+v)", tick, b.node, avail)
			}
		}

		// Arrivals, round-robin across tenants so no tenant owns the
		// front of every tick.
		maxArr := 0
		for i := range plan.Tenants {
			if a := plan.Tenants[i].Arrivals[tick]; a > maxArr {
				maxArr = a
			}
		}
		for k := 0; k < maxArr; k++ {
			for i := range plan.Tenants {
				if k >= plan.Tenants[i].Arrivals[tick] {
					continue
				}
				if err := submit(tick, i); err != nil {
					return fail(err)
				}
			}
		}

		vc.Advance(plan.Tick)
		if err := audit(tick); err != nil {
			return fail(err)
		}
	}

	// Teardown: end every outage, close every session, audit the
	// pristine books.
	for i := range blackouts {
		b := &blackouts[i]
		if !b.active {
			continue
		}
		c.ReleaseLoad(b.owner)
		if oracle != nil {
			oracle.ledger.ReleaseSession(state.Owner(b.owner))
		}
		b.active = false
	}
	for _, s := range live {
		if err := closeSession(s); err != nil {
			return fail(fmt.Errorf("teardown: %w", err))
		}
	}
	live = nil
	vc.Advance(plan.Tick)
	if err := audit(plan.Ticks); err != nil {
		return fail(fmt.Errorf("teardown: %w", err))
	}
	if got := c.ActiveSessions(); got != 0 {
		return fail(fmt.Errorf("teardown left %d sessions", got))
	}
	for i := range plan.Tenants {
		u := c.TenantUsageFor(plan.Tenants[i].Tenant)
		if u.Sessions != 0 || math.Abs(u.CPU) > 1e-9 || math.Abs(u.Memory) > 1e-9 || math.Abs(u.BandwidthKbps) > 1e-9 {
			return fail(fmt.Errorf("teardown left tenant %s usage %+v", plan.Tenants[i].Tenant, u))
		}
	}

	rates := make([]float64, cfg.Tenants)
	for i := range rates {
		if rep.TenantArrivals[i] > 0 {
			rates[i] = float64(rep.TenantAdmitted[i]) / float64(rep.TenantArrivals[i])
		}
	}
	rep.Fairness = metrics.JainIndex(rates)
	logf("episode done: %d arrivals, %d admitted, %d quota-rejected, %d refused, fairness %.3f",
		rep.Arrivals, rep.Admitted, rep.QuotaRejected, rep.Refused, rep.Fairness)
	return rep, nil
}
