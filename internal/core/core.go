// Package core implements the paper's primary contribution: the adaptive
// composition probing (ACP) protocol for optimal component composition
// (§3), plus the five comparison algorithms of the evaluation (§4.1):
// exhaustive Optimal, selective probing (SP), random probing (RP), and
// the Random and Static heuristics.
//
// The composer separates probing from committing. Probe runs the
// distributed hop-by-hop protocol of Figure 3 — dropping unqualified
// probes, performing transient resource allocation, selecting good
// next-hop candidates under coarse-grain global state guidance, and
// finally choosing the composition minimizing the congestion aggregation
// metric phi (Eq. 1). Commit then makes the transient allocations
// permanent via session confirmation (§3.3 step 4). The gap between the
// two is the probing round-trip latency, during which the transient
// allocations shield the chosen resources from concurrent requests.
package core

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/component"
	"repro/internal/discovery"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/qos"
	"repro/internal/state"
)

// Algorithm selects the composition algorithm (§4.1).
type Algorithm int

// The six algorithms of the paper's evaluation.
const (
	// AlgACP is adaptive composition probing: global-state-guided per-hop
	// candidate selection, phi-optimal final selection.
	AlgACP Algorithm = iota + 1
	// AlgOptimal exhaustively probes every candidate at every hop and
	// picks the phi-optimal qualified composition. Exponential overhead.
	AlgOptimal
	// AlgSP (selective probing) keeps ACP's per-hop selection but picks a
	// random qualified composition instead of the phi-optimal one.
	AlgSP
	// AlgRP (random probing) selects next-hop candidates uniformly at
	// random without consulting the global state, then picks the
	// phi-optimal composition — the fully decentralized baseline.
	AlgRP
	// AlgRandom picks one random candidate per function outright.
	AlgRandom
	// AlgStatic always picks a fixed candidate per function.
	AlgStatic
)

// String names the algorithm as the paper's figure legends do.
func (a Algorithm) String() string {
	switch a {
	case AlgACP:
		return "ACP"
	case AlgOptimal:
		return "Optimal"
	case AlgSP:
		return "SP"
	case AlgRP:
		return "RP"
	case AlgRandom:
		return "Random"
	case AlgStatic:
		return "Static"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// SelectionPolicy is the per-hop candidate ranking used by probing
// algorithms. The paper's ACP ranks by the risk function D (Eq. 9)
// breaking ties with the congestion function W (Eq. 10); the other
// policies exist for the ablation benchmarks.
type SelectionPolicy int

// Per-hop candidate selection policies.
const (
	// SelectRiskThenCongestion is the paper's §3.5 rule.
	SelectRiskThenCongestion SelectionPolicy = iota + 1
	// SelectRiskOnly ranks by D alone.
	SelectRiskOnly
	// SelectCongestionOnly ranks by W alone.
	SelectCongestionOnly
	// SelectRandom picks uniformly at random (used by RP).
	SelectRandom
)

// PhiMode selects the objective a composition is scored with. The
// paper's Eq. 1 sums congestion terms; the variants support fairness
// objectives for concurrent multi-application clusters ("Resource
// Allocation for Multiple Concurrent In-Network Stream-Processing
// Applications", PAPERS.md).
type PhiMode int

// Phi objectives.
const (
	// PhiSum is Eq. 1: the sum of node and link congestion terms.
	// The zero value, so existing configs keep the paper's objective.
	PhiSum PhiMode = iota
	// PhiWeighted scales the Eq. 1 sum by the request's phi weight
	// (component.Request.PhiWeight): a higher-priority tenant sees its
	// congestion magnified, so it claims less-loaded placements first
	// and its admission-time requiredPhi bound is proportionally
	// tighter.
	PhiWeighted
	// PhiBottleneck scores a composition by its single worst
	// congestion term instead of the sum — minimising the maximum is
	// the classic max-min fairness surrogate, spreading competing
	// tenants away from shared hot spots.
	PhiBottleneck
)

// String names the mode as configs and reports spell it.
func (m PhiMode) String() string {
	switch m {
	case PhiSum:
		return "sum"
	case PhiWeighted:
		return "weighted"
	case PhiBottleneck:
		return "bottleneck"
	default:
		return fmt.Sprintf("PhiMode(%d)", int(m))
	}
}

// Env bundles the substrate a composer operates on.
type Env struct {
	Mesh     *overlay.Mesh
	Catalog  *component.Catalog
	Registry *discovery.Registry
	Ledger   *state.Ledger
	Global   *state.Global
	Counters *metrics.Counters
	// Now supplies virtual time for transient-allocation expiry.
	Now func() time.Duration
	// Rand drives the random selections of SP/RP/Random and tie
	// shuffling.
	Rand *rand.Rand
	// Tracer, when non-nil, receives probe-lifecycle events (spawns,
	// prunes, holds, returns, commits). nil disables tracing; the probe
	// hot path then pays only a pointer check.
	Tracer *obs.Tracer
	// Obs, when non-nil, receives the composer's latency instruments
	// (probe-walk round trip, probes per request). nil disables them at
	// the cost of a pointer check per observation.
	Obs *obs.Registry
}

func (e *Env) validate() error {
	switch {
	case e.Mesh == nil:
		return fmt.Errorf("core: Env.Mesh is nil")
	case e.Catalog == nil:
		return fmt.Errorf("core: Env.Catalog is nil")
	case e.Registry == nil:
		return fmt.Errorf("core: Env.Registry is nil")
	case e.Ledger == nil:
		return fmt.Errorf("core: Env.Ledger is nil")
	case e.Global == nil:
		return fmt.Errorf("core: Env.Global is nil")
	case e.Now == nil:
		return fmt.Errorf("core: Env.Now is nil")
	case e.Rand == nil:
		return fmt.Errorf("core: Env.Rand is nil")
	}
	return nil
}

// Config tunes the composer.
type Config struct {
	// Algorithm selects the composition strategy.
	Algorithm Algorithm
	// ProbingRatio is alpha in (0, 1]: the fraction of a function's
	// candidates probed per hop (§3.4). Ignored by Optimal (always 1),
	// Random, and Static.
	ProbingRatio float64
	// HoldTTL is the transient resource allocation timeout: holds placed
	// by probes expire after this long unless confirmed (§3.3 step 2).
	HoldTTL time.Duration
	// TransientAllocation toggles transient holds. The harness oracle and
	// the tuner's shadow composer turn it off.
	TransientAllocation bool
	// Selection is the per-hop candidate ranking policy. Zero value
	// means the algorithm's natural policy (ACP/Optimal/SP: risk then
	// congestion; RP: random).
	Selection SelectionPolicy
	// MaxProbesPerRequest caps probe fan-out per request as a safety
	// valve for Optimal's exponential search. Zero means the default.
	MaxProbesPerRequest int
	// Phi selects the composition objective. The zero value PhiSum is
	// the paper's Eq. 1; the variants support multi-tenant fairness.
	Phi PhiMode
}

// DefaultConfig returns an ACP composer configuration with the paper's
// mid-range probing ratio.
func DefaultConfig() Config {
	return Config{
		Algorithm:           AlgACP,
		ProbingRatio:        0.3,
		HoldTTL:             10 * time.Second,
		TransientAllocation: true,
		MaxProbesPerRequest: 200_000,
	}
}

// Composition is a concrete component graph lambda = (C, L): one
// component per function-graph position plus the virtual link route per
// dependency edge.
type Composition struct {
	// Components holds the chosen component per graph position.
	Components []component.ComponentID
	// Routes holds the virtual link per graph edge, parallel to
	// Request.Graph.Edges.
	Routes []overlay.Route
	// QoS is the aggregated end-to-end QoS over all components and
	// virtual links (Eq. 3's left-hand side).
	QoS qos.Vector
	// Phi is the congestion aggregation metric (Eq. 1) at decision time.
	Phi float64
}

// Outcome is the result of probing one request.
type Outcome struct {
	// Request is the composed request.
	Request *component.Request
	// Best is the chosen composition, nil when none qualified.
	Best *Composition
	// Latency estimates the probing round trip: the deepest probe path's
	// one-way delay, doubled.
	Latency time.Duration
	// ProbesSent and PathsReturned describe the probe tree.
	ProbesSent    int
	PathsReturned int
	// Qualified is the number of distinct qualified compositions the
	// deputy evaluated.
	Qualified int
	best      Composition // what Best points at: the winner, copied out of the walk's scratch
}

// Success reports whether a composition was found.
func (o *Outcome) Success() bool { return o.Best != nil }

// Composer runs composition for one algorithm configuration.
//
// A Composer is NOT safe for concurrent use: the probe walk reuses
// composer-lifetime scratch buffers (candidate cache, availability view,
// hold marks, the replica of the global state, the kernel's ranking and
// demand accumulators) to stay allocation-free in steady state. Concurrent
// drivers give every caller its own composer over the shared environment
// and enable locking on the ledger; the global state always locks.
type Composer struct {
	env Env
	cfg Config

	walk    walkState
	scratch walkScratch
	kern    *Kernel

	// walkRtt and walkProbes are resolved once from Env.Obs (nil, and
	// therefore no-op, when observability is off).
	walkRtt    *obs.QHistogram
	walkProbes *obs.QHistogram
	// floorOverruns counts the walks that read a node above its ceiling
	// and fell back to the capacity floor (see nodeAvail).
	floorOverruns *obs.Counter

	// recomposing is set for the walk of a ProbeRecompose.
	recomposing bool
}

// NewComposer validates the environment and configuration.
func NewComposer(env Env, cfg Config) (*Composer, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	if env.Counters == nil {
		env.Counters = &metrics.Counters{}
	}
	switch cfg.Algorithm {
	case AlgACP, AlgOptimal, AlgSP, AlgRP, AlgRandom, AlgStatic:
	default:
		return nil, fmt.Errorf("core: unknown algorithm %d", cfg.Algorithm)
	}
	if cfg.Algorithm != AlgOptimal && cfg.Algorithm != AlgRandom && cfg.Algorithm != AlgStatic {
		if cfg.ProbingRatio <= 0 || cfg.ProbingRatio > 1 {
			return nil, fmt.Errorf("core: probing ratio %v out of (0, 1]", cfg.ProbingRatio)
		}
	}
	if cfg.HoldTTL <= 0 {
		return nil, fmt.Errorf("core: HoldTTL %v <= 0", cfg.HoldTTL)
	}
	if cfg.MaxProbesPerRequest == 0 {
		cfg.MaxProbesPerRequest = DefaultConfig().MaxProbesPerRequest
	}
	if cfg.MaxProbesPerRequest < 0 {
		return nil, fmt.Errorf("core: MaxProbesPerRequest %d < 0", cfg.MaxProbesPerRequest)
	}
	if cfg.Phi < PhiSum || cfg.Phi > PhiBottleneck {
		return nil, fmt.Errorf("core: unknown phi mode %d", int(cfg.Phi))
	}
	if cfg.Selection == 0 {
		if cfg.Algorithm == AlgRP {
			cfg.Selection = SelectRandom
		} else {
			cfg.Selection = SelectRiskThenCongestion
		}
	}
	c := &Composer{env: env, cfg: cfg, kern: NewKernel(env.Catalog)}
	c.scratch = newWalkScratch(&c.env)
	c.walkRtt = env.Obs.QHistogram("core.walk.rtt_ms")
	c.walkProbes = env.Obs.QHistogram("core.walk.probes")
	c.floorOverruns = env.Obs.Counter("core.walk.floor_overruns")
	return c, nil
}

// Config returns the composer's effective configuration.
func (c *Composer) Config() Config { return c.cfg }

// Algorithm returns the composer's algorithm.
func (c *Composer) Algorithm() Algorithm { return c.cfg.Algorithm }

// SetProbingRatio adjusts alpha; the probing-ratio tuner calls this as
// system conditions change (§3.4).
func (c *Composer) SetProbingRatio(alpha float64) error {
	if alpha <= 0 || alpha > 1 {
		return fmt.Errorf("core: probing ratio %v out of (0, 1]", alpha)
	}
	c.cfg.ProbingRatio = alpha
	return nil
}

// ProbingRatio returns the current alpha.
func (c *Composer) ProbingRatio() float64 { return c.cfg.ProbingRatio }

// Probe runs the composition protocol for one request and returns the
// decision. On success the winning composition's resources are covered by
// transient holds (when enabled) awaiting Commit; on failure all of the
// request's holds have been released.
func (c *Composer) Probe(req *component.Request) (*Outcome, error) {
	if err := req.Check(&c.scratch.plan); err != nil {
		return nil, err
	}
	if req.Client < 0 || req.Client >= c.env.Mesh.NumNodes() {
		return nil, fmt.Errorf("core: request %d client %d out of range", req.ID, req.Client)
	}
	var (
		out *Outcome
		err error
	)
	switch c.cfg.Algorithm {
	case AlgRandom, AlgStatic:
		out, err = c.probeDirect(req)
	default:
		out, err = c.probeWalk(req)
	}
	if err == nil && out != nil {
		c.walkRtt.Observe(float64(out.Latency) / float64(time.Millisecond))
		c.walkProbes.Observe(float64(out.ProbesSent))
	}
	return out, err
}

// Commit makes a successful outcome's composition permanent: transient
// holds become a session allocation and confirmation messages are
// charged (§3.3 step 4). The session is registered under the request ID;
// release it with Release when the application closes.
func (c *Composer) Commit(o *Outcome) error {
	if o == nil || o.Best == nil {
		return fmt.Errorf("core: commit of unsuccessful outcome")
	}
	c.kern.Stack(o.Request, o.Best.Components, o.Best.Routes)
	nodes, links := c.kern.Shares()
	if err := c.env.Ledger.CommitShares(state.Owner(o.Request.ID), nodes, links); err != nil {
		c.env.Tracer.RolledBack(o.Request.ID, o.Request.Client, obs.ReasonCommitNack)
		return fmt.Errorf("request %d: %w", o.Request.ID, err)
	}
	c.env.Counters.Confirmations.Add(int64(len(o.Best.Components)))
	c.env.Tracer.Committed(o.Request.ID, o.Request.Client)
	return nil
}

// ProbeRecompose probes req as a make-before-break re-composition of
// the committed session prev: for the duration of the probe, the ledger
// credits prev's committed allocation back into req's availability
// views, hold feasibility, and phi scoring — the footnote-8 own-demand
// discipline applied to live state — so candidates overlapping the old
// composition qualify as if the session's own resources were free for
// reuse, while concurrent requests still see them as committed. On
// success the winning composition is covered by req's transient holds
// and the migration window stays open: finish with CommitMigration or
// AbortRecompose. On error, or when no composition qualified, the
// window is closed and every hold has been released.
func (c *Composer) ProbeRecompose(req *component.Request, prev int64) (*Outcome, error) {
	if err := c.env.Ledger.BeginMigration(state.Owner(req.ID), state.Owner(prev)); err != nil {
		return nil, err
	}
	c.recomposing = true
	out, err := c.Probe(req)
	c.recomposing = false
	if err != nil || !out.Success() {
		c.env.Ledger.EndMigration(state.Owner(req.ID))
	}
	return out, err
}

// CommitMigration atomically flips the committed session prev to a
// successful ProbeRecompose outcome: the probe's transient holds are
// released, the old allocation is swapped for the new composition's
// demands (now registered under the outcome's request ID), and the
// migration window closes. The session stays committed at every
// observable point — make-before-break. On failure the window and the
// holds survive, so the caller can retry or AbortRecompose.
func (c *Composer) CommitMigration(o *Outcome, prev int64) error {
	if o == nil || o.Best == nil {
		return fmt.Errorf("core: migration commit of unsuccessful outcome")
	}
	c.kern.Stack(o.Request, o.Best.Components, o.Best.Routes)
	nodes, links := c.kern.Shares()
	if err := c.env.Ledger.MigrateSession(state.Owner(prev), state.Owner(o.Request.ID), nodes, links); err != nil {
		c.env.Tracer.RolledBack(o.Request.ID, o.Request.Client, obs.ReasonCommitNack)
		return fmt.Errorf("request %d: %w", o.Request.ID, err)
	}
	c.env.Counters.Confirmations.Add(int64(len(o.Best.Components)))
	c.env.Tracer.SessionMigrated(prev, o.Request.ID, o.Request.Client)
	return nil
}

// AbortRecompose abandons an open migration window: in one ledger
// operation the window closes and the re-probe's transient holds are
// released, and the source session's committed allocation stays
// untouched — the break never happens.
func (c *Composer) AbortRecompose(requestID int64) {
	c.env.Ledger.AbortMigration(state.Owner(requestID))
	c.env.Tracer.RolledBack(requestID, -1, obs.ReasonAbort)
}

// Release tears down a committed session (§2.2 Close).
func (c *Composer) Release(requestID int64) {
	c.env.Ledger.ReleaseSession(state.Owner(requestID))
	c.env.Tracer.SessionReleased(requestID)
}

// Abort releases any transient holds still owned by the request, e.g.
// when the caller decides not to commit a successful outcome.
func (c *Composer) Abort(requestID int64) {
	c.env.Ledger.ReleaseOwner(state.Owner(requestID))
	c.env.Tracer.RolledBack(requestID, -1, obs.ReasonAbort)
}
