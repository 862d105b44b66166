// Package runtime is the live, in-process counterpart of the simulator:
// a distributed stream processing middleware offering the paper's
// session-oriented interface (§2.2) — Find composes an application with
// ACP, Process streams data units through the composed component graph,
// and Close tears the session down.
//
// The control plane runs the same composition engine as the simulator
// (internal/core), so the protocol evaluated by the experiments is
// exactly the protocol deployed here. The data plane is built from
// goroutines and channels: each composed component runs as its own
// goroutine with bounded input queues, splits fan out, and joins merge —
// the natural Go rendering of the paper's component graph with input
// queues (Figure 1(b)).
package runtime

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/harness/clock"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/qos"
	"repro/internal/state"
	"repro/internal/substrate"
)

// ErrNoComposition is returned by Find when no qualified component
// composition exists — the middleware's "null sessionId" (§2.2).
var ErrNoComposition = errors.New("runtime: no qualified component composition")

// ErrUnknownSession is returned for session IDs that were never issued
// or have been closed.
var ErrUnknownSession = errors.New("runtime: unknown session")

// errShutDown is returned by every admission path once Shutdown ran.
var errShutDown = errors.New("runtime: cluster is shut down")

// ErrNoBetterComposition is returned by Recompose when re-probing found
// no composition meeting the session's admission-time congestion bound:
// the session keeps its current composition untouched and the caller
// (typically the AdaptController) may retry later.
var ErrNoBetterComposition = errors.New("runtime: no better composition")

// SessionID identifies a composed stream processing session.
type SessionID int64

// DataUnit is one element of a data stream (a tuple, sample, or frame).
type DataUnit struct {
	// Seq orders units within their source stream.
	Seq int64
	// Payload carries the application data.
	Payload interface{}
}

// ProcessorFunc is the per-unit work of a stream processing function. It
// returns the transformed output units: none to filter the unit out, one
// for a map, several for a flat-map.
type ProcessorFunc func(unit DataUnit) []DataUnit

// Config sizes and tunes an in-process cluster.
type Config struct {
	// Config sizes the substrate; its Seed drives the substrate, the
	// clients, and composition randomness.
	substrate.Config
	// NodeCapacities, when non-nil, overrides NodeCapacity per node
	// (heterogeneous node classes): entry i is node i's capacity. Its
	// length must equal OverlayNodes.
	NodeCapacities []qos.Resources
	// Algorithm and ProbingRatio configure the composition engine.
	Algorithm    core.Algorithm
	ProbingRatio float64
	// Phi selects the composition objective (core.PhiSum is the paper's
	// Eq. 1; the variants support multi-tenant fairness).
	Phi core.PhiMode
	// Tracer, when non-nil, receives probe-lifecycle events from the
	// composition engine. nil disables tracing.
	Tracer *obs.Tracer
	// Registry, when non-nil, exposes control-plane instruments
	// (find outcomes, active sessions, find latency). nil disables.
	Registry *obs.Registry
	// Clock supplies time to hold expiry, find-latency measurement and
	// the re-aggregation timer. nil means the wall clock; the simulation
	// harness substitutes a virtual clock.
	Clock clock.Clock
}

// queueSize bounds each component's input queue (the paper's input
// queues absorb transient rate mismatch; §2.1).
const queueSize = 64

// DefaultConfig returns a laptop-sized cluster: 64 stream nodes over a
// 512-node IP graph with two components per node.
func DefaultConfig() Config {
	return Config{
		Config: substrate.Config{
			Seed:              1,
			IPNodes:           512,
			OverlayNodes:      64,
			NeighborsPerNode:  5,
			NumFunctions:      16,
			ComponentsPerNode: 2,
			NodeCapacity:      qos.Resources{CPU: 100, Memory: 1000},
		},
		Algorithm:    core.AlgACP,
		ProbingRatio: 0.5,
	}
}

// session is one live composed application.
type session struct {
	id      SessionID
	request *component.Request // what the ledger keeps the allocation under: &found until a migration
	found   component.Request  // FindApp's request, allocated with the session
	comp    *core.Composition
	// tenant and quotaCharge record what Find charged against the
	// tenant's quota, refunded exactly on Close. Empty tenant sessions
	// are metered under the "" tenant.
	tenant      string
	quotaCharge TenantUsage
	// requiredPhi is the admission-time congestion bound: the phi the
	// composition engine accepted at Find. Re-compositions must meet it
	// (within the adaptation tolerance); it never changes on migration.
	requiredPhi float64
	// phi is what the session.phi gauge reads: decision phi at admission
	// and at each migration flip, observed phi after refreshSessionGauges.
	phi float64
	// migrations counts make-before-break flips this session survived.
	migrations int64
	// recomposing is set while a Recompose of this session walks: the
	// ledger takes one migration of a session at a time.
	recomposing bool
	// The data plane, built by Process.
	running  bool
	input    chan DataUnit
	output   chan DataUnit
	quit     chan struct{} // closed by Close to force teardown
	quitOnce sync.Once
	done     chan struct{} // closed when the pipeline drains
	procFn   []ProcessorFunc
	processd atomic.Int64
	perComp  []atomic.Int64 // units emitted per position
}

// Cluster is an in-process distributed stream processing system.
type Cluster struct {
	cfg      Config
	mesh     *overlay.Mesh
	catalog  *component.Catalog
	counters *metrics.Counters

	finds          *obs.Counter
	findFailures   *obs.Counter
	activeSessions *obs.Gauge
	// findQuantiles is the probe-phase latency of every find, p50/p99/p999
	// derivable.
	findQuantiles *obs.QHistogram

	// Migration instruments: successful make-before-break flips, failed
	// or rejected re-composition attempts, and the latency of each
	// re-probe + flip.
	migrationsC       *obs.Counter
	migrationFailures *obs.Counter
	migrationLatency  *obs.QHistogram

	// The per-session gauge families (registerSessionFamilies) are read
	// from the session table when the registry is read; admission and
	// teardown never touch them.
	scrape sessionScrape

	// Multi-tenant instruments: tenantSessions gauges each tenant's live
	// session count; quotaRejections counts typed quota admission
	// refusals per tenant.
	tenantSessions  *obs.GaugeVec
	quotaRejections *obs.CounterVec

	clock clock.Clock

	// The composition substrate. Ledger and global state run in locked
	// mode and guard themselves: probe walks use them without mu, and
	// the only lock order is mu -> ledger -> global. env is what every
	// pooled composer is built over (Rand aside).
	ledger *state.Ledger
	global *state.Global
	env    core.Env
	ccfg   core.Config

	// mu guards the session table, the quota books, the request and
	// client streams and the composer pool — never a probe walk (see
	// DESIGN.md, concurrency model).
	mu sync.Mutex
	// quota is the per-tenant admission accounting. guarded by mu
	quota quotaTable
	// idle holds the pooled composers no caller is walking on; built
	// counts every composer made, the index the next one is seeded with.
	// guarded by mu
	idle      []*core.Composer
	built     int64 // guarded by mu
	rng       *rand.Rand
	functions map[component.FunctionID]ProcessorFunc
	sessions  map[SessionID]*session
	nextID    SessionID
	nextReq   int64
	start     time.Time
	closed    bool
	// aggTimer is the pending re-aggregation of the coarse virtual-link
	// state (see aggregate); Shutdown stops it. guarded by mu
	aggTimer clock.Timer

	// adaptTol is the fractional headroom re-compositions get over the
	// admission-time phi bound; set by EnableAdaptation. guarded by mu
	adaptTol float64
}

// NewCluster builds the network substrate, deploys components, and
// starts the composition engine.
func NewCluster(cfg Config) (*Cluster, error) {
	// One stream draws the substrate, then the clients.
	rng := rand.New(rand.NewSource(cfg.Seed))
	mesh, catalog, err := substrate.Build(cfg.Config, rng, rng, rng)
	if err != nil {
		return nil, err
	}

	ccfg := core.DefaultConfig()
	if cfg.Algorithm != 0 {
		ccfg.Algorithm = cfg.Algorithm
	}
	if cfg.ProbingRatio != 0 {
		ccfg.ProbingRatio = cfg.ProbingRatio
	}
	ccfg.Phi = cfg.Phi

	clk := clock.Or(cfg.Clock)
	c := &Cluster{
		cfg:       cfg,
		ccfg:      ccfg,
		mesh:      mesh,
		catalog:   catalog,
		counters:  &metrics.Counters{},
		rng:       rng,
		functions: make(map[component.FunctionID]ProcessorFunc),
		sessions:  make(map[SessionID]*session),
		clock:     clk,
		start:     clk.Now(),

		finds:          cfg.Registry.Counter("runtime.finds"),
		findFailures:   cfg.Registry.Counter("runtime.find_failures"),
		activeSessions: cfg.Registry.Gauge("runtime.sessions.active"),
		findQuantiles:  cfg.Registry.QHistogram("runtime.find.latency_quantiles_ms"),

		migrationsC:       cfg.Registry.Counter("runtime.migrations"),
		migrationFailures: cfg.Registry.Counter("runtime.migration_failures"),
		migrationLatency:  cfg.Registry.QHistogram("runtime.migration.latency_quantiles_ms"),

		tenantSessions:  cfg.Registry.GaugeVec("runtime.tenant.sessions", "tenant"),
		quotaRejections: cfg.Registry.CounterVec("runtime.quota_rejections", "tenant"),

		quota: newQuotaTable(),
	}
	c.registerSessionFamilies()
	c.ledger = state.NewLedger(mesh, cfg.NodeCapacity, c.now)
	c.ledger.EnableLocking()
	if caps := cfg.NodeCapacities; caps != nil {
		if len(caps) != mesh.NumNodes() {
			return nil, fmt.Errorf("runtime: NodeCapacities has %d entries for %d overlay nodes",
				len(caps), mesh.NumNodes())
		}
		for node, capacity := range caps {
			if err := c.ledger.SetNodeCapacity(node, capacity); err != nil {
				return nil, err
			}
		}
	}
	global, err := state.NewGlobal(c.ledger, mesh, state.DefaultGlobalConfig(), c.counters)
	if err != nil {
		return nil, err
	}
	c.global = global
	c.env = core.Env{
		Mesh:     mesh,
		Catalog:  catalog,
		Registry: discovery.NewRegistry(catalog, mesh.NumNodes(), c.counters),
		Ledger:   c.ledger,
		Global:   global,
		Counters: c.counters,
		Now:      c.now,
		Tracer:   cfg.Tracer,
		Obs:      cfg.Registry,
	}
	// Build the first composer now: it validates the configuration, and
	// a cluster with one caller never builds another.
	composer, err := c.takeComposerLocked()
	if err != nil {
		return nil, err
	}
	c.putComposerLocked(composer)
	c.armAggregateLocked()
	return c, nil
}

// armAggregateLocked schedules the next aggregation one period from now.
func (c *Cluster) armAggregateLocked() {
	c.aggTimer = c.clock.AfterFunc(c.global.Period(), c.aggregate)
}

// aggregate is the aggregation node's periodic job (§3.2): the overlay
// links' reported states become the snapshot virtual-link queries are
// answered from — the coarse bandwidth qualification (Eq. 8) and the link
// term of W(c) see load only through it — and the next period is armed,
// until Shutdown.
func (c *Cluster) aggregate() {
	c.global.Aggregate()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.armAggregateLocked()
	}
}

// putComposerLocked returns a composer to the pool.
func (c *Cluster) putComposerLocked(composer *core.Composer) {
	c.idle = append(c.idle, composer)
}

// takeComposerLocked pops an idle composer, building one when every
// composer is out on a walk. A composer's private random stream
// (SP/RP/Random selections) is seeded from the cluster seed and the
// composer's index, never drawn from c.rng: how many callers overlap
// must not move the client stream.
func (c *Cluster) takeComposerLocked() (*core.Composer, error) {
	if n := len(c.idle); n > 0 {
		composer := c.idle[n-1]
		c.idle = c.idle[:n-1]
		return composer, nil
	}
	env := c.env
	env.Rand = rand.New(rand.NewSource(c.cfg.Seed ^ (c.built+1)*0x5851f42d4c957f2d))
	composer, err := core.NewComposer(env, c.ccfg)
	if err != nil {
		return nil, err
	}
	c.built++
	return composer, nil
}

// now supplies monotonic time on the cluster's clock to the ledger's
// hold expiry.
func (c *Cluster) now() time.Duration { return c.clock.Since(c.start) }

// RegisterFunction installs the per-unit processing work for a stream
// processing function. Unregistered functions behave as identity.
func (c *Cluster) RegisterFunction(f component.FunctionID, fn ProcessorFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.functions[f] = fn
}

// NumNodes returns the overlay size.
func (c *Cluster) NumNodes() int { return c.mesh.NumNodes() }

// Counters returns a snapshot of the control-plane message counters.
func (c *Cluster) Counters() metrics.Counts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters.Snapshot()
}

// Find invokes the optimal component composition algorithm for the
// requested function graph, QoS, and resource requirements (§2.2). On
// success it commits the composition and returns a session identifier;
// if no qualified composition exists it returns ErrNoComposition.
func (c *Cluster) Find(graph *component.Graph, qosReq qos.Vector, resReq []qos.Resources, bandwidthKbps float64) (SessionID, error) {
	return c.FindApp(FindRequest{
		Graph:         graph,
		QoSReq:        qosReq,
		ResReq:        resReq,
		BandwidthKbps: bandwidthKbps,
	})
}

// FindRequest is the tenant-aware form of Find's arguments.
type FindRequest struct {
	// Tenant labels the requesting application for quota accounting and
	// per-tenant gauges; empty means the anonymous single-app tenant.
	Tenant string
	// Weight is the request's phi weight under core.PhiWeighted
	// (0 = default weight 1).
	Weight float64
	// PinClient pins the deputy to Client instead of drawing it from the
	// cluster RNG — the simulation harness uses this to replay the exact
	// request through its reference oracle.
	PinClient     bool
	Client        int
	Graph         *component.Graph
	QoSReq        qos.Vector
	ResReq        []qos.Resources
	BandwidthKbps float64
}

// FindApp is Find with a tenant identity: the request is first charged
// against the tenant's quota (a typed *QuotaError rejection, wrapping
// ErrQuotaExceeded, if over budget — the composer is never consulted),
// then composed and committed as Find does. The quota charge is
// refunded if composition fails, and on Close.
//
// Safe for concurrent use, and concurrent calls do run concurrently: mu
// is held to prepare the request and to register the session, not while
// the request is probed and committed.
func (c *Cluster) FindApp(r FindRequest) (SessionID, error) {
	if r.PinClient && (r.Client < 0 || r.Client >= c.mesh.NumNodes()) {
		return 0, fmt.Errorf("runtime: pinned client %d outside [0, %d)", r.Client, c.mesh.NumNodes())
	}
	demand := quotaDemand(r.Graph, r.ResReq, r.BandwidthKbps)
	c.mu.Lock()
	composer, err := c.beginLocked(r.Tenant, demand)
	if err != nil {
		// A refused request draws neither an ID nor a client.
		c.mu.Unlock()
		return 0, err
	}
	s := &session{tenant: r.Tenant, quotaCharge: demand}
	s.found = component.Request{
		Graph:        r.Graph,
		QoSReq:       r.QoSReq,
		ResReq:       append([]qos.Resources(nil), r.ResReq...),
		BandwidthReq: r.BandwidthKbps,
		Client:       r.Client,
		Duration:     time.Hour, // sessions live until Close
		Tenant:       r.Tenant,
		Weight:       r.Weight,
	}
	s.request = &s.found
	c.drawLocked(s.request, r.PinClient)
	c.mu.Unlock()
	return c.composeAndAdmit(composer, s)
}

// drawLocked gives the request the next request ID and, unless pinned,
// a client node from the cluster's stream.
func (c *Cluster) drawLocked(req *component.Request, pinned bool) {
	c.nextReq++
	req.ID = c.nextReq
	if !pinned {
		req.Client = c.rng.Intn(c.mesh.NumNodes())
	}
}

// beginLocked opens a find: it charges the tenant's quota and takes a
// composer out of the pool. Charging before the (unlocked) walk is what
// keeps concurrent callers from oversubscribing a tenant — a caller that
// loses its walk refunds, it never admits beyond the cap.
func (c *Cluster) beginLocked(tenant string, demand TenantUsage) (*core.Composer, error) {
	if c.closed {
		return nil, errShutDown
	}
	if qerr := c.quota.charge(tenant, demand); qerr != nil {
		c.quotaRejections.With(tenantLabel(tenant)).Inc()
		return nil, qerr
	}
	composer, err := c.takeComposerLocked()
	if err != nil {
		c.quota.refund(tenant, demand)
		return nil, err
	}
	return composer, nil
}

// composeAndAdmit is FindApp's compose path: probe and commit on the
// caller's composer with no cluster lock held — the transient holds are
// the concurrency control between overlapping walks (§3.3 step 2) — then
// finish under mu.
func (c *Cluster) composeAndAdmit(composer *core.Composer, s *session) (SessionID, error) {
	findStart := c.now()
	c.finds.Inc()
	outcome, err := composer.Probe(s.request)
	c.findQuantiles.Observe(float64(c.now()-findStart) / float64(time.Millisecond))
	if err == nil {
		if !outcome.Success() {
			err = ErrNoComposition
		} else if cerr := composer.Commit(outcome); cerr != nil {
			composer.Abort(s.request.ID)
			err = fmt.Errorf("runtime: commit: %w", cerr)
		}
	}
	if err != nil {
		c.findFailures.Inc()
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.putComposerLocked(composer)
	if err == nil && c.closed {
		// Shut down mid-walk: Shutdown has already swept the session
		// table, so this session would leak. Give the allocation back.
		c.release(s.request.ID)
		err = errShutDown
	}
	if err != nil {
		c.quota.refund(s.tenant, s.quotaCharge)
		return 0, err
	}
	return c.admitLocked(s, outcome), nil
}

// release frees a committed allocation on the ledger.
func (c *Cluster) release(requestID int64) {
	c.ledger.ReleaseSession(state.Owner(requestID))
	c.cfg.Tracer.SessionReleased(requestID)
}

// admitLocked registers a committed composition as a live session in the
// session table, where the session gauges read it. Every admission ends
// here, so a session is usable by Process as soon as FindApp returns it.
func (c *Cluster) admitLocked(s *session, outcome *core.Outcome) SessionID {
	c.nextID++
	s.id = c.nextID
	s.comp = outcome.Best
	s.requiredPhi = outcome.Best.Phi
	s.phi = outcome.Best.Phi
	c.sessions[s.id] = s
	c.activeSessions.Set(float64(len(c.sessions)))
	if s.tenant != "" {
		c.tenantSessions.With(s.tenant).Set(float64(c.quota.usageSessions(s.tenant)))
	}
	return s.id
}

// tenantLabel renders a tenant for label values; the anonymous tenant
// scrapes as "default".
func tenantLabel(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// Recompose re-runs the composition algorithm for a live session against
// current network conditions and migrates it make-before-break: the new
// composition is probed and held while the old one stays committed, then
// the ledger flips the session's allocation atomically — the session is
// never without resources (the adaptation analogue of §3.3's transient
// holds). The flip is rejected, leaving the session untouched, when no
// composition meets the admission-time phi bound (within the adaptation
// tolerance): that is ErrNoBetterComposition, the caller's cue to back
// off and retry. So is a Recompose of a session another Recompose is
// still walking for.
//
// Recompose runs FindApp's three phases: mu is held to prepare the
// request and to record the flip, not while the walk probes and the
// ledger flips. Close never waits on a walk; the ledger orders the two
// (DESIGN.md §18).
func (c *Cluster) Recompose(id SessionID) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errShutDown
	}
	s, ok := c.sessions[id]
	if !ok {
		c.mu.Unlock()
		return ErrUnknownSession
	}
	if s.recomposing {
		// The adaptation controller and a caller can both re-compose one
		// session; the one that comes second backs off.
		c.mu.Unlock()
		return fmt.Errorf("%w: session %d is being re-composed", ErrNoBetterComposition, id)
	}
	composer, err := c.takeComposerLocked()
	if err != nil {
		c.mu.Unlock()
		return err
	}
	prev := s.request
	c.nextReq++
	req := &component.Request{
		ID:           c.nextReq,
		Graph:        prev.Graph,
		QoSReq:       prev.QoSReq,
		ResReq:       append([]qos.Resources(nil), prev.ResReq...),
		BandwidthReq: prev.BandwidthReq,
		Client:       prev.Client, // the client endpoint does not move
		Duration:     prev.Duration,
		Tenant:       prev.Tenant,
		Weight:       prev.Weight,
	}
	bound := s.requiredPhi * (1 + c.adaptTol)
	s.recomposing = true
	c.mu.Unlock()

	start := c.now()
	outcome, err := migrate(composer, req, prev.ID, bound)
	elapsed := c.now() - start

	c.mu.Lock()
	defer c.mu.Unlock()
	c.putComposerLocked(composer)
	s.recomposing = false
	if c.sessions[id] != s {
		// Closed while the walk ran (session IDs are never reused). A Close
		// before the flip dropped the migration window, so the flip was
		// refused; one after it released only the old allocation.
		if err == nil {
			c.release(req.ID)
		}
		return ErrUnknownSession
	}
	if err != nil {
		c.migrationFailures.Inc()
		return err
	}
	c.migrationLatency.Observe(float64(elapsed) / float64(time.Millisecond))
	c.migrationsC.Inc()

	// Flip the session onto the new composition. It keeps its ID, so the
	// drift pass sees an in-place update — one recovery transition, not a
	// forget/re-admit storm. The required phi is untouched: migrating
	// does not renegotiate the contract.
	s.request = req
	s.comp = outcome.Best
	s.phi = outcome.Best.Phi
	s.migrations++
	return nil
}

// migrate is Recompose's walk and flip, run with no cluster lock: re-probe
// req as a re-composition of the committed request prev, and flip the
// ledger to the result if its phi is within bound. Any refusal after a
// successful probe aborts the migration window and its holds.
func migrate(composer *core.Composer, req *component.Request, prev int64, bound float64) (*core.Outcome, error) {
	outcome, err := composer.ProbeRecompose(req, prev)
	if err != nil {
		return nil, fmt.Errorf("runtime: recompose probe: %w", err)
	}
	if !outcome.Success() {
		return nil, fmt.Errorf("%w: probe found no qualified composition", ErrNoBetterComposition)
	}
	if outcome.Best.Phi > bound {
		composer.AbortRecompose(req.ID)
		return nil, fmt.Errorf("%w: best phi %.4g exceeds bound %.4g", ErrNoBetterComposition, outcome.Best.Phi, bound)
	}
	if err := composer.CommitMigration(outcome, prev); err != nil {
		composer.AbortRecompose(req.ID)
		return nil, fmt.Errorf("runtime: migrate: %w", err)
	}
	return outcome, nil
}

// refreshSessionGauges recomputes every live session's observed phi
// (Eq. 1) under the ledger's *current* committed residuals, which the
// "session.phi" gauge vector reads. At commit time the gauge carries
// decision-time phi; as other sessions commit and release around it,
// the same composition's congestion drifts — this is the observation
// the adaptation controller's drift pass compares against the bound.
func (c *Cluster) refreshSessionGauges() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.sessions {
		s.phi = c.observedPhi(s)
	}
}

// observedPhi aggregates the session's congestion metric phi (Eq. 1)
// from the ledger's current committed residuals. The ledger residual
// already excludes this session's own committed demand, matching the
// post-placement residual rr of Eq. 1. Caller holds c.mu.
func (c *Cluster) observedPhi(s *session) float64 {
	req := s.request
	phi := 0.0
	for pos, cid := range s.comp.Components {
		node := c.catalog.Component(cid).Node
		phi += qos.CongestionTerm(req.ResReq[pos], c.ledger.NodeCommittedAvailable(node))
	}
	for _, route := range s.comp.Routes {
		residual := math.Inf(1)
		if !route.CoLocated {
			for _, link := range route.Links {
				residual = math.Min(residual, c.ledger.LinkCommittedAvailable(link))
			}
		}
		phi += qos.BandwidthCongestionTerm(req.BandwidthReq, residual)
	}
	return phi
}

// Composition describes a session's composed component graph.
type Composition struct {
	// Components lists (position, component, node) assignments.
	Components []PlacedComponent
	// QoS is the composed application's aggregated QoS.
	QoS qos.Vector
	// Phi is the congestion aggregation metric at composition time.
	Phi float64
}

// PlacedComponent is one composed component placement.
type PlacedComponent struct {
	Position  int
	Function  component.FunctionID
	Component component.ComponentID
	Node      int
}

// Describe reports a session's composition.
func (c *Cluster) Describe(id SessionID) (Composition, error) {
	var out Composition
	err := c.DescribeInto(id, &out)
	return out, err
}

// DescribeInto is Describe writing into out, whose Components slice it
// reuses: a caller that describes sessions one after another passes
// the same Composition and allocates only when a session has more
// positions than any before it. An unknown session leaves out zero
// apart from that slice's capacity.
func (c *Cluster) DescribeInto(id SessionID, out *Composition) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	*out = Composition{Components: out.Components[:0]}
	s, ok := c.sessions[id]
	if !ok {
		return ErrUnknownSession
	}
	out.QoS, out.Phi = s.comp.QoS, s.comp.Phi
	if n := len(s.comp.Components); cap(out.Components) < n {
		out.Components = make([]PlacedComponent, 0, n)
	}
	for pos, cid := range s.comp.Components {
		comp := c.catalog.Component(cid)
		out.Components = append(out.Components, PlacedComponent{
			Position:  pos,
			Function:  comp.Function,
			Component: cid,
			Node:      comp.Node,
		})
	}
	return nil
}

// Process starts the session's continuous data stream processing (§2.2):
// it wires one goroutine per composed component, running the functions
// registered now, with bounded input queues and returns the channel pair
// to feed and drain. Close the input channel to flush the pipeline; the
// output channel closes once every unit has drained. Process can be
// called once per session.
func (c *Cluster) Process(id SessionID) (chan<- DataUnit, <-chan DataUnit, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sessions[id]
	if !ok {
		return nil, nil, ErrUnknownSession
	}
	if s.running {
		return nil, nil, fmt.Errorf("runtime: session %d already processing", id)
	}
	graph := s.request.Graph
	s.running = true
	s.procFn = make([]ProcessorFunc, graph.NumPositions())
	for pos, f := range graph.Functions {
		s.procFn[pos] = c.functions[f] // nil = identity
	}
	s.perComp = make([]atomic.Int64, graph.NumPositions())
	s.input = make(chan DataUnit, queueSize)
	s.output = make(chan DataUnit, queueSize)
	s.quit = make(chan struct{})
	s.done = make(chan struct{})
	startPipeline(s)
	return s.input, s.output, nil
}

// SessionStats reports per-component data-plane counters.
type SessionStats struct {
	// Emitted counts output units per graph position.
	Emitted []int64
	// SinkEmitted is the sink's total output.
	SinkEmitted int64
}

// Stats returns the session's data-plane counters, zeros before Process.
// Safe to call while the pipeline runs; values are monotone snapshots.
func (c *Cluster) Stats(id SessionID) (SessionStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sessions[id]
	if !ok {
		return SessionStats{}, ErrUnknownSession
	}
	st := SessionStats{
		Emitted:     make([]int64, s.request.Graph.NumPositions()),
		SinkEmitted: s.processd.Load(),
	}
	for i := range s.perComp {
		st.Emitted[i] = s.perComp[i].Load()
	}
	return st, nil
}

// Close tears down a stream processing session (§2.2) and releases its
// resources. Closing the session's input channel first flushes the
// pipeline gracefully; Close on a session whose input is still open
// forces teardown, discarding in-flight units. Close never touches the
// caller-owned input channel, so a producer that keeps sending after
// Close simply blocks — stop producing before (or promptly after)
// closing the session.
func (c *Cluster) Close(id SessionID) error {
	c.mu.Lock()
	s, ok := c.sessions[id]
	if !ok {
		c.mu.Unlock()
		return ErrUnknownSession
	}
	delete(c.sessions, id)
	c.activeSessions.Set(float64(len(c.sessions)))
	c.quota.refund(s.tenant, s.quotaCharge)
	if s.tenant != "" {
		c.tenantSessions.With(s.tenant).Set(float64(c.quota.usageSessions(s.tenant)))
	}
	c.mu.Unlock()

	if s.running {
		// Force teardown of components still waiting on input, and drain
		// whatever the caller left in the output queue so the sink can
		// flush — otherwise an abandoned output channel would deadlock
		// the teardown. Then wait for every component goroutine to exit.
		s.quitOnce.Do(func() { close(s.quit) })
		go func() {
			for range s.output {
			}
		}()
		<-s.done
	}

	// Out of the table, the session's request is final: a Recompose still
	// walking finds it gone and gives back whatever it flipped to.
	c.release(s.request.ID)
	return nil
}

// Shutdown closes every live session, cancels the periodic re-aggregation
// and stops the cluster. Idempotent,
// and safe against sessions racing their own Close: Close only fails
// with ErrUnknownSession, which Shutdown ignores.
func (c *Cluster) Shutdown() {
	c.mu.Lock()
	ids := make([]SessionID, 0, len(c.sessions))
	for id := range c.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	c.closed = true
	aggTimer := c.aggTimer
	c.aggTimer = nil
	c.mu.Unlock()
	if aggTimer != nil {
		aggTimer.Stop()
	}
	for _, id := range ids {
		_ = c.Close(id)
	}
}

// SessionAudit is one live session's adaptation-relevant standing, as
// reported by AuditSessions for the simulation harness's oracles.
type SessionAudit struct {
	ID SessionID
	// RequestID is the ledger owner of the session's current allocation
	// (changes on every migration flip).
	RequestID int64
	// ObservedPhi is Eq. 1 under the ledger's current committed
	// residuals; RequiredPhi is the admission-time bound.
	ObservedPhi float64
	RequiredPhi float64
	// Migrations counts make-before-break flips the session survived.
	Migrations int64
}

// AuditSessions snapshots every live session's congestion standing in
// session-ID order.
func (c *Cluster) AuditSessions() []SessionAudit {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]SessionID, 0, len(c.sessions))
	for id := range c.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]SessionAudit, 0, len(ids))
	for _, id := range ids {
		s := c.sessions[id]
		out = append(out, SessionAudit{
			ID:          id,
			RequestID:   s.request.ID,
			ObservedPhi: c.observedPhi(s),
			RequiredPhi: s.requiredPhi,
			Migrations:  s.migrations,
		})
	}
	return out
}

// CheckInvariants audits the ledger's conservation laws (Eqs. 4–5,
// including any open migration windows) and that every live session
// owns exactly one committed allocation — a session is never unheld,
// even mid-migration. The second check names the owner the session
// table records, which a Recompose between its flip and its finish has
// already moved on the ledger: audit when no Recompose is in flight.
func (c *Cluster) CheckInvariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ledger.CheckInvariants(); err != nil {
		return err
	}
	for id, s := range c.sessions {
		if !c.ledger.HasSession(state.Owner(s.request.ID)) {
			return fmt.Errorf("runtime: session %d (request %d) has no committed allocation", id, s.request.ID)
		}
	}
	return nil
}

// ActiveSessions returns the number of live sessions.
func (c *Cluster) ActiveSessions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sessions)
}

// NodeResidual returns a node's committed residual capacity — what a
// congestion surge can still consume.
func (c *Cluster) NodeResidual(node int) qos.Resources {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ledger.NodeCommittedAvailable(node)
}

// NodeCapacity returns a node's total capacity (per-node under
// Config.NodeCapacities, uniform otherwise).
func (c *Cluster) NodeCapacity(node int) qos.Resources {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ledger.NodeCapacity(node)
}

// LinkResidual returns an overlay link's committed residual bandwidth.
func (c *Cluster) LinkResidual(link int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ledger.LinkCommittedAvailable(link)
}

// NumLinks returns the overlay link count.
func (c *Cluster) NumLinks() int { return c.mesh.NumLinks() }

// Mesh exposes the overlay mesh for read-only use — the simulation
// harness's oracle rebuilds routes against the same substrate.
func (c *Cluster) Mesh() *overlay.Mesh { return c.mesh }

// Catalog exposes the component deployment for read-only use.
func (c *Cluster) Catalog() *component.Catalog { return c.catalog }

// InjectLoad commits synthetic background load on the ledger under a
// negative owner ID (positive IDs belong to composed sessions), the
// harness's and experiments' way of manufacturing congestion surges
// that drive sessions into QoS drift. Release with ReleaseLoad.
func (c *Cluster) InjectLoad(owner int64, load []state.NodeShare) error {
	if owner >= 0 {
		return fmt.Errorf("runtime: injected load owner %d must be negative", owner)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ledger.CommitShares(state.Owner(owner), load, nil)
}

// ReleaseLoad removes previously injected background load. Unknown
// owners are a no-op.
func (c *Cluster) ReleaseLoad(owner int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ledger.ReleaseSession(state.Owner(owner))
}
