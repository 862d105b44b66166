// Package dist is the distributed execution of the ACP protocol: one
// goroutine per overlay node, communicating only by messages — probes
// fan out across node mailboxes exactly as they fan out across hosts in
// the paper's PlanetLab prototype, end-system resource state is sharded
// (each node owns its own ledger), overlay-link bandwidth lives in one
// state.Ledger standing in for the link-state agents, and the coarse
// global state is a per-node view updated by best-effort broadcast.
//
// The deterministic simulator (internal/core + internal/experiment)
// answers "does the algorithm behave as the paper claims"; this package
// answers "does the protocol actually work as a concurrent distributed
// system" — races, interleavings, timeouts, and all. Both make their
// decisions — per-hop selection, demand stacking, Eq. 1 — in the one
// composition kernel (core.Kernel); they differ in where state comes from
// and how messages travel.
package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/component"
	"repro/internal/faults"
	"repro/internal/harness/clock"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/qos"
	"repro/internal/state"
	"repro/internal/substrate"
)

// ErrNoComposition is returned when no qualified composition was found
// before the probe collection deadline.
var ErrNoComposition = errors.New("dist: no qualified component composition")

// ErrClosed is returned after Shutdown.
var ErrClosed = errors.New("dist: cluster is shut down")

// Config sizes a distributed cluster.
type Config struct {
	// Config sizes the substrate; its Seed drives the substrate and the
	// per-node streams.
	substrate.Config
	// ProbingRatio is alpha for per-hop candidate selection.
	ProbingRatio float64
	// CollectTimeout is how long a deputy waits for probe returns before
	// deciding. In-process hops take microseconds; the default of 50ms
	// absorbs scheduler jitter even under the race detector.
	CollectTimeout time.Duration
	// HoldTTL is the transient allocation timeout (§3.3 step 2).
	HoldTTL time.Duration
	// CommitTimeout bounds how long a deputy waits for commit acks
	// before rolling the request back. Zero means one second; negative
	// is rejected.
	CommitTimeout time.Duration
	// SweepInterval is the period of each node's hold-expiry sweep, the
	// recovery pass that frees transient allocations orphaned by lost
	// messages. Zero means HoldTTL/4; negative disables the sweep
	// (expired holds then free only on the next availability check).
	SweepInterval time.Duration
	// ComposeRetries is the deputy-side retry budget on
	// ErrNoComposition: under transient loss a re-probe over shifted
	// state often succeeds (§3.6). Zero (the default) retries nothing.
	ComposeRetries int
	// RetryBackoff is the wait before the first retry, doubling per
	// attempt. Zero means 20ms; negative is rejected.
	RetryBackoff time.Duration
	// RetryAlphaStep widens the probing ratio by this much on each
	// retry (capped at 1): failed attempts shift toward flooding.
	RetryAlphaStep float64
	// UpdateThreshold is the coarse global-state drift trigger (§3.2).
	UpdateThreshold float64
	// Faults, when non-nil, configures deterministic fault injection on
	// every message send (drops, delays, duplication, node outages).
	// nil — or a config that injects nothing — leaves the send path
	// untouched apart from one nil check.
	Faults *faults.Config
	// Tracer, when non-nil, receives probe-lifecycle span events from
	// every node goroutine (the Tracer is safe for concurrent emitters).
	// nil disables tracing; the hot path then pays only a pointer check.
	Tracer *obs.Tracer
	// Registry, when non-nil, exposes cluster counters and histograms
	// (probes sent/dropped/returned, commits, rollbacks). nil disables.
	Registry *obs.Registry
	// Clock supplies time to every timeout, TTL, sweep, and backoff in
	// the cluster. nil means the wall clock; the deterministic
	// simulation harness (internal/harness) substitutes a virtual clock
	// so protocol time elapses instantly and reproducibly.
	Clock clock.Clock

	// mailboxSize bounds each node's message queue: startedMailbox
	// unless NewUnstarted (or an in-package test) sets it.
	mailboxSize int
}

// Mailbox bounds: a started node drains its own mailbox; an unstarted
// one is drained by the caller's steps, so NewUnstarted raises the bound.
const startedMailbox, steppedMailbox = 1024, 1 << 16

// DefaultConfig returns a test-sized distributed cluster.
func DefaultConfig() Config {
	return Config{
		Config: substrate.Config{
			Seed:              1,
			IPNodes:           256,
			OverlayNodes:      32,
			NeighborsPerNode:  5,
			NumFunctions:      8,
			ComponentsPerNode: 2,
			NodeCapacity:      qos.Resources{CPU: 100, Memory: 1000},
		},
		ProbingRatio:    0.5,
		CollectTimeout:  50 * time.Millisecond,
		HoldTTL:         2 * time.Second,
		CommitTimeout:   time.Second,
		RetryBackoff:    20 * time.Millisecond,
		RetryAlphaStep:  0.15,
		UpdateThreshold: 0.10,
	}
}

// Composition is the decided component graph with its load metric.
type Composition struct {
	Components []component.ComponentID
	Phi        float64
	QoS        qos.Vector

	owner int64         // internal request ID the session was committed under
	parts []participant // the nodes it was committed on: the release fan-out
}

// instruments caches registry lookups once at cluster construction so
// node goroutines touch only atomic instrument fields (all nil-safe).
type instruments struct {
	probesSent    *obs.Counter
	probesDropped *obs.Counter
	probeReturns  *obs.Counter
	commits       *obs.Counter
	rollbacks     *obs.Counter
	noComposition *obs.Counter
	probeDelayMs  *obs.Histogram

	faultDrops     *obs.Counter
	faultDelays    *obs.Counter
	faultDups      *obs.Counter
	nodeCrashes    *obs.Counter
	nodeRestarts   *obs.Counter
	holdsSwept     *obs.Counter
	composeRetries *obs.Counter
	releasesLost   *obs.Counter

	// Deputy phase latencies as auto-ranging quantile histograms:
	// collect is compose-arrival to decision, commit is decision to the
	// final commit ack (or rollback).
	collectMs *obs.QHistogram
	commitMs  *obs.QHistogram
}

func newInstruments(r *obs.Registry) instruments {
	return instruments{
		probesSent:    r.Counter("dist.probes.sent"),
		probesDropped: r.Counter("dist.probes.dropped"),
		probeReturns:  r.Counter("dist.probes.returned"),
		commits:       r.Counter("dist.commits"),
		rollbacks:     r.Counter("dist.rollbacks"),
		noComposition: r.Counter("dist.no_composition"),
		probeDelayMs:  r.Histogram("dist.probe.delay_ms", []float64{1, 2, 5, 10, 25, 50, 100, 250}),

		faultDrops:     r.Counter("dist.faults.dropped"),
		faultDelays:    r.Counter("dist.faults.delayed"),
		faultDups:      r.Counter("dist.faults.duplicated"),
		nodeCrashes:    r.Counter("dist.node.crashes"),
		nodeRestarts:   r.Counter("dist.node.restarts"),
		holdsSwept:     r.Counter("dist.holds.swept"),
		composeRetries: r.Counter("dist.compose.retries"),
		releasesLost:   r.Counter("dist.releases.lost"),

		collectMs: r.QHistogram("dist.phase.collect_ms"),
		commitMs:  r.QHistogram("dist.phase.commit_ms"),
	}
}

// sessionTable holds what the per-session gauge families read whenever the
// registry is read (DESIGN.md §12): the deputy adds a row at the final
// commit ack and Release takes it out. The first family of a registry read
// labels the rows still unlabelled and sorts them by label for all three.
type sessionTable struct {
	mu     sync.Mutex   // a leaf: nothing is taken under it
	rows   []sessionRow // guarded by mu
	scrape uint64       // guarded by mu: the read rows were sorted for
}

// sessionRow is one committed session: its phi, its Eq. 3 standing (MaxRatio
// of accumulated QoS to requirement) and the requirement, the constant 1.
type sessionRow struct {
	owner int64
	vals  [3]float64
	label [1]string // set by the first read that sees the row
}

func (t *sessionTable) add(r sessionRow) {
	t.mu.Lock()
	t.rows = append(t.rows, r)
	t.mu.Unlock()
}

func (t *sessionTable) remove(owner int64) {
	t.mu.Lock()
	t.rows = slices.DeleteFunc(t.rows, func(r sessionRow) bool { return r.owner == owner })
	t.mu.Unlock()
}

// register registers the per-session families over the table in r.
func (t *sessionTable) register(r *obs.Registry) {
	for f, name := range [...]string{"session.phi", "session.qos.observed", "session.qos.required"} {
		r.GaugeVecFunc(name, func(scrape uint64, emit func([]string, float64)) {
			t.mu.Lock()
			defer t.mu.Unlock()
			if t.scrape != scrape {
				for i := range t.rows {
					if t.rows[i].label[0] == "" {
						t.rows[i].label[0] = strconv.FormatInt(t.rows[i].owner, 10)
					}
				}
				slices.SortFunc(t.rows, func(a, b sessionRow) int { return strings.Compare(a.label[0], b.label[0]) })
				t.scrape = scrape
			}
			for i := range t.rows {
				emit(t.rows[i].label[:], t.rows[i].vals[f])
			}
		}, "session")
	}
}

// Cluster runs the distributed protocol.
//
// links holds every overlay link's bandwidth: a decided composition
// reserves its stacked link demand as one session under the request ID,
// and release or rollback frees exactly that session. Only the link half
// of the ledger is used — node resources stay with the node actors — and
// it is locked only when node goroutines run (start).
type Cluster struct {
	cfg        Config
	mesh       *overlay.Mesh
	catalog    *component.Catalog
	nodes      []*node
	links      *state.Ledger
	tracer     *obs.Tracer
	ins        instruments
	sessions   sessionTable
	faults     *faults.Injector
	clock      clock.Clock
	sweepEvery time.Duration
	steps      stepLines // StepNode's memo, owned by the stepping goroutine

	mu      sync.Mutex
	nextReq int64
	closed  bool
	done    chan struct{}
	wg      sync.WaitGroup
	timers  sync.WaitGroup // outstanding delayed-delivery timers

	// inflight counts messages the node goroutines still owe work for:
	// queued in a mailbox or mid-dispatch. The credit is taken *before*
	// the message becomes visible and returned only after its dispatch
	// completes, so inflight == 0 proves every node is parked in its
	// select — the virtual-clock driver in the tests relies on this to
	// know that firing the next timer cannot preempt a dispatch whose
	// sends have not all landed yet. (Messages parked in a
	// delayed-delivery timer are deliberately excluded: releasing them
	// is itself a clock advance, ordered against protocol timeouts by
	// deadline.)
	inflight atomic.Int64
}

// New builds the substrate and starts one goroutine per overlay node.
// Call Shutdown to stop them.
func New(cfg Config) (*Cluster, error) {
	c, err := build(cfg)
	if err != nil {
		return nil, err
	}
	c.start()
	return c, nil
}

// build constructs the cluster without starting the node goroutines
// (white-box tests drive dispatch directly on an unstarted cluster).
func build(cfg Config) (*Cluster, error) {
	if cfg.ProbingRatio <= 0 || cfg.ProbingRatio > 1 {
		return nil, fmt.Errorf("dist: probing ratio %v out of (0, 1]", cfg.ProbingRatio)
	}
	if cfg.CollectTimeout <= 0 || cfg.HoldTTL <= 0 {
		return nil, fmt.Errorf("dist: non-positive timeout")
	}
	if cfg.CommitTimeout < 0 {
		return nil, fmt.Errorf("dist: negative commit timeout %v", cfg.CommitTimeout)
	}
	if cfg.CommitTimeout == 0 {
		cfg.CommitTimeout = time.Second
	}
	if cfg.ComposeRetries < 0 {
		return nil, fmt.Errorf("dist: negative retry budget %d", cfg.ComposeRetries)
	}
	if cfg.RetryBackoff < 0 {
		return nil, fmt.Errorf("dist: negative retry backoff %v", cfg.RetryBackoff)
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 20 * time.Millisecond
	}
	if cfg.RetryAlphaStep < 0 {
		return nil, fmt.Errorf("dist: negative retry alpha step %v", cfg.RetryAlphaStep)
	}
	if cfg.mailboxSize == 0 {
		cfg.mailboxSize = startedMailbox
	}
	clk := clock.Or(cfg.Clock)
	epoch := clk.Now()
	var inj *faults.Injector
	if cfg.Faults != nil {
		fcfg := *cfg.Faults
		if fcfg.Clock == nil {
			// The injector's crash schedule runs on the cluster's clock
			// so scheduled outages replay deterministically under the
			// simulation harness.
			fcfg.Clock = clk
		}
		var err error
		if inj, err = faults.New(fcfg); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	mesh, catalog, err := substrate.Build(cfg.Config, rng, rng, rng)
	if err != nil {
		return nil, err
	}

	c := &Cluster{
		cfg:     cfg,
		mesh:    mesh,
		catalog: catalog,
		links:   state.NewLedger(mesh, cfg.NodeCapacity, func() time.Duration { return clk.Since(epoch) }),
		tracer:  cfg.Tracer,
		ins:     newInstruments(cfg.Registry),
		faults:  inj,
		clock:   clk,
		done:    make(chan struct{}),
	}
	c.sessions.register(cfg.Registry)
	switch {
	case cfg.SweepInterval > 0:
		c.sweepEvery = cfg.SweepInterval
	case cfg.SweepInterval == 0:
		c.sweepEvery = cfg.HoldTTL / 4
	}
	c.nodes = make([]*node, mesh.NumNodes())
	for id := range c.nodes {
		c.nodes[id] = newNode(c, id)
	}
	return c, nil
}

func (c *Cluster) start() {
	c.links.EnableLocking()
	for _, n := range c.nodes {
		c.wg.Add(1)
		go func(n *node) {
			defer c.wg.Done()
			n.run()
		}(n)
	}
}

// deliver routes m into node to's mailbox, consulting the fault
// injector first. The return value is what the *sender* should believe:
// injected loss is silent (true — the network ate it), while a full
// mailbox is an observable backpressure signal (false), exactly as with
// a direct send. With no injector configured the cost over a direct
// send is this one nil check.
func (c *Cluster) deliver(to int, m *message, kind faults.Kind) bool {
	if c.faults == nil {
		return c.nodes[to].send(m)
	}
	return c.deliverFaulty(to, m, kind)
}

func (c *Cluster) deliverFaulty(to int, m *message, kind faults.Kind) bool {
	if c.faults.Down(to) {
		c.dropInjected(to, m, obs.ReasonNodeDown)
		return true
	}
	a := c.faults.OnSend(kind)
	if a.Drop {
		c.dropInjected(to, m, obs.ReasonFaultInjected)
		return true
	}
	if a.Duplicate {
		c.ins.faultDups.Inc()
		c.tracer.MsgDuplicated(m.reqID, to)
		c.nodes[to].send(m) // best-effort extra copy
	}
	if a.Delay > 0 {
		c.ins.faultDelays.Inc()
		c.tracer.MsgDelayed(m.reqID, to, float64(a.Delay)/float64(time.Millisecond))
		c.timers.Add(1)
		// No inflight credit while parked: delivery needs the clock to
		// reach the delay deadline, and the virtual driver orders that
		// against protocol timeouts by deadline — a probe delayed past
		// the collect window is *supposed* to miss the decide.
		parked := *m // the sender reuses m once deliver returns
		c.clock.AfterFunc(a.Delay, func() {
			defer c.timers.Done()
			if !c.nodes[to].send(&parked) {
				c.dropInjected(to, &parked, obs.ReasonMailbox)
			}
		})
		return true
	}
	return c.nodes[to].send(m)
}

// dropInjected loses a message, keeping the observability invariants: a
// dropped probe still closes its span and counts as a dropped probe.
func (c *Cluster) dropInjected(to int, m *message, reason obs.Reason) {
	c.ins.faultDrops.Inc()
	if m.kind == msgProbe {
		c.tracer.ProbeDropped(m.reqID, m.probe, m.idx, to, reason)
		c.ins.probesDropped.Inc()
		return
	}
	c.tracer.MsgDropped(m.reqID, to, reason)
}

const (
	releaseRetries = 6
	releaseBackoff = 5 * time.Millisecond
)

// sendRelease delivers a session-teardown message; attempt counts the
// retries so far. Teardown rides a reliable control channel — it is exempt
// from fault injection, because a lost release would leak committed
// resources forever (there is no lease on commits) — and a momentarily
// full mailbox is retried with backoff instead of dropped.
func (c *Cluster) sendRelease(to int, owner int64, attempt int) {
	if c.nodes[to].send(&message{kind: msgRelease, reqID: owner}) {
		return
	}
	if attempt >= releaseRetries {
		c.ins.releasesLost.Inc()
		return
	}
	c.clock.AfterFunc(releaseBackoff<<attempt, func() {
		c.sendRelease(to, owner, attempt+1)
	})
}

// NumNodes returns the overlay size.
func (c *Cluster) NumNodes() int { return c.mesh.NumNodes() }

// Compose runs the distributed ACP protocol for one request: the client
// node acts as deputy, probes fan out across node goroutines, and the
// phi-minimal qualified composition is committed. Safe for concurrent
// use; concurrent requests contend through transient allocations exactly
// as in the paper.
func (c *Cluster) Compose(req *component.Request) (*Composition, error) {
	alpha := c.cfg.ProbingRatio
	for attempt := 0; ; attempt++ {
		reqID, reply, err := c.submit(req, alpha)
		if err != nil {
			return nil, err
		}
		var out composeReply
		select {
		case out = <-reply:
		case <-c.done:
			return nil, ErrClosed
		}
		if out.err == nil || !errors.Is(out.err, ErrNoComposition) || attempt >= c.cfg.ComposeRetries {
			return out.comp, out.err
		}
		// A failed attempt under transient loss or contention is worth
		// retrying with the probing widened (§3.6): the holds of the
		// failed round decay, state shifts, and a larger alpha probes
		// more of the candidate space.
		c.tracer.ComposeRetried(reqID, req.Client, attempt+1)
		c.ins.composeRetries.Inc()
		alpha = math.Min(1, alpha+c.cfg.RetryAlphaStep)
		select {
		case <-c.clock.After(c.cfg.RetryBackoff << attempt):
		case <-c.done:
			return nil, ErrClosed
		}
	}
}

// submit hands the request to its deputy under a fresh cluster-unique ID
// and returns the channel the outcome arrives on. The deputy works on a
// private copy in the attempt's record: transient holds and session
// records key on the ID, and each retry gets a fresh one so stale holds of
// a failed attempt cannot satisfy the new one. Validating the request
// builds its walk plan into the record.
func (c *Cluster) submit(req *component.Request, alpha float64) (int64, chan composeReply, error) {
	rq := new(request)
	if err := req.Check(&rq.plan); err != nil {
		return 0, nil, err
	}
	if req.Client < 0 || req.Client >= len(c.nodes) {
		return 0, nil, fmt.Errorf("dist: client %d out of range", req.Client)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, nil, ErrClosed
	}
	c.nextReq++
	reqID := c.nextReq
	c.mu.Unlock()

	rq.req = *req
	rq.req.ID = reqID
	rq.reply = make(chan composeReply, 1)
	rq.first.recs = rq.recs[:]
	rq.block.Store(&rq.first)
	if !c.nodes[req.Client].send(&message{kind: msgCompose, reqID: reqID, rq: rq, alpha: alpha}) {
		return reqID, nil, fmt.Errorf("dist: deputy node %d mailbox overloaded", req.Client)
	}
	return reqID, rq.reply, nil
}

// Release tears down a composed session, freeing its resources on every
// node and link that carries it. The composition remembers the internal
// request identity and the nodes it was committed under.
func (c *Cluster) Release(_ *component.Request, comp *Composition) {
	if comp == nil {
		return
	}
	for _, part := range comp.parts {
		c.sendRelease(part.node, comp.owner, 0)
	}
	c.links.ReleaseSession(state.Owner(comp.owner))
	c.sessions.remove(comp.owner)
	c.tracer.SessionReleased(comp.owner)
}

// Shutdown stops every node goroutine and waits for them to exit.
func (c *Cluster) Shutdown() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.done)
	c.mu.Unlock()
	for _, n := range c.nodes {
		close(n.quit)
	}
	c.wg.Wait()
	// Let in-flight delayed deliveries land (in dead mailboxes) before
	// the drain below closes their spans.
	c.timers.Wait()
	c.drainMailboxes()
}

// drainMailboxes closes the span of every probe still queued when the
// node goroutines stopped, so a recorded trace balances: each spawned
// probe ends in exactly one returned/forwarded/dropped/pruned event.
func (c *Cluster) drainMailboxes() {
	if !c.tracer.Enabled() {
		return
	}
	for _, n := range c.nodes {
		for m := new(message); n.mailbox.pop(m); {
			if m.kind == msgProbe && m.probe != 0 {
				c.tracer.ProbeDropped(m.reqID, m.probe, m.idx, n.id, obs.ReasonShutdown)
				c.ins.probesDropped.Inc()
			}
		}
	}
}

// routesOf resolves the virtual link of every graph edge of an assignment
// into buf, reporting false when some pair of hosts is unroutable.
func (c *Cluster) routesOf(buf []overlay.Route, req *component.Request, assign []component.ComponentID) ([]overlay.Route, bool) {
	buf = buf[:0]
	for _, e := range req.Graph.Edges {
		from := c.catalog.Component(assign[e.From]).Node
		to := c.catalog.Component(assign[e.To]).Node
		route, ok := c.mesh.RouteBetween(from, to)
		if !ok {
			return buf, false
		}
		buf = append(buf, route)
	}
	return buf, true
}

// ComponentNode reports which overlay node hosts a component (display
// and monitoring hook; the placement is immutable).
func (c *Cluster) ComponentNode(id component.ComponentID) int {
	return c.catalog.Component(id).Node
}
