// Package experiment assembles the full simulation stack — topology,
// overlay, component placement, hierarchical state, workload, and the
// composition algorithms — into reproducible runs of the paper's
// evaluation (§4): one runner per figure, each emitting the same rows or
// series the paper plots.
package experiment

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/faults"
	"repro/internal/harness/clock"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/qos"
	"repro/internal/state"
	"repro/internal/substrate"
	"repro/internal/trace"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// DefaultSystemConfig mirrors §4.1 at the 400-node midpoint.
func DefaultSystemConfig() substrate.Config {
	return substrate.Config{
		Seed:              1,
		IPNodes:           3200,
		OverlayNodes:      400,
		NeighborsPerNode:  6,
		NumFunctions:      component.DefaultNumFunctions,
		ComponentsPerNode: 1,
		NodeCapacity:      qos.Resources{CPU: 100, Memory: 1000},
	}
}

// Platform is the immutable part of a simulated system: the network, the
// component deployment, and the template library. No run writes to it,
// so one platform serves many runs, concurrent ones included.
type Platform struct {
	Config  substrate.Config
	Mesh    *overlay.Mesh
	Catalog *component.Catalog
	Library *component.Library
}

// BuildPlatform generates the IP topology, overlay mesh, component
// placement, and template library from the seed.
func BuildPlatform(cfg substrate.Config) (*Platform, error) {
	// Each stage draws from its own derived seed so, e.g., the template
	// library is identical across platforms that differ only in overlay
	// size — the scalability sweep of Figure 7 then varies the system,
	// not the applications.
	stageRng := func(stage int64) *rand.Rand {
		return rand.New(rand.NewSource(cfg.Seed*1_000_003 + stage))
	}
	mesh, catalog, err := substrate.Build(cfg, stageRng(1), stageRng(2), stageRng(3))
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}

	library, err := component.GenerateLibrary(cfg.NumFunctions, stageRng(4))
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}

	return &Platform{Config: cfg, Mesh: mesh, Catalog: catalog, Library: library}, nil
}

// StatePolicy selects the global-state ablation mode.
type StatePolicy int

// Global-state maintenance policies.
const (
	// StateCoarse is the paper's threshold-triggered coarse global state.
	StateCoarse StatePolicy = iota + 1
	// StateFresh force-refreshes the global state before every request —
	// an idealized centralized bound (its messaging cost is NOT modelled).
	StateFresh
	// StateFrozen never updates the global state after start — the
	// fully-stale extreme.
	StateFrozen
)

// RunConfig parameterises one simulation run on a platform.
type RunConfig struct {
	// Seed drives the run's workload and algorithm randomness,
	// independent of the platform seed.
	Seed int64
	// Algorithm and ProbingRatio configure the composer.
	Algorithm    core.Algorithm
	ProbingRatio float64
	// Duration is the simulated time (paper: 100 min steady-state, 150
	// min adaptation).
	Duration time.Duration
	// Phases is the request-rate schedule; use a single phase for a
	// constant rate.
	Phases []workload.Phase
	// QoSLevel scales request QoS requirements (Figure 5(b)).
	QoSLevel workload.QoSLevel
	// Tuning, when non-nil, enables the paper's profiling probing-ratio
	// tuner (Figure 8(b)); ProbingRatio then only sets the starting
	// point.
	Tuning *tuning.Config
	// Selection overrides the per-hop candidate ranking (ablation); zero
	// means the algorithm's natural policy.
	Selection core.SelectionPolicy
	// State selects the global-state ablation policy; zero means
	// StateCoarse.
	State StatePolicy
	// GlobalStateConfig overrides the coarse state parameters; zero
	// value means the paper defaults.
	GlobalStateConfig state.GlobalConfig
	// MaxProbesPerRequest caps probe fan-out (0 = default).
	MaxProbesPerRequest int
	// TraceCap bounds the tuner's replay trace (0 = default 60).
	TraceCap int
	// WorkloadOverride, when non-nil, adjusts the workload configuration
	// after defaults are applied (calibration and ablation hook).
	WorkloadOverride func(*workload.Config)
	// FailuresPerMinute injects node crashes at this Poisson rate, drawn
	// up front as a faults.Crash schedule from a seed derived from Seed;
	// a crashed node's components become undiscoverable and its sessions
	// are disrupted. Zero disables failure injection.
	FailuresPerMinute float64
	// RepairTime is how long a failed node stays down (default 10 min).
	RepairTime time.Duration
	// RecomposeOnFailure re-runs composition for sessions disrupted by a
	// node crash, modelling the failure-resilience story of §1.
	RecomposeOnFailure bool
	// TraceWriter, when non-nil, records every arrival as a JSON-lines
	// trace record for later replay.
	TraceWriter *trace.Writer
	// Replay, when non-empty, substitutes the recorded requests for the
	// synthetic workload: each record's request is composed at its
	// recorded arrival time, and Phases is ignored.
	Replay []trace.Record
	// Tracer, when non-nil, receives probe-lifecycle events from the
	// composition engine. Its clock is re-based onto the run's virtual
	// time, so event timestamps are simulated microseconds.
	Tracer *obs.Tracer
	// Registry, when non-nil, receives the run's message counters and
	// summary gauges after the run completes. nil disables.
	Registry *obs.Registry
}

// samplePeriod is the success-rate sampling window (paper: 5 min).
const samplePeriod = 5 * time.Minute

// DefaultRunConfig returns the paper's standard efficiency-run settings:
// ACP at alpha=0.3, 100 simulated minutes, 5-minute sampling.
func DefaultRunConfig(ratePerMinute float64) RunConfig {
	return RunConfig{
		Seed:         1,
		Algorithm:    core.AlgACP,
		ProbingRatio: 0.3,
		Duration:     100 * time.Minute,
		Phases:       []workload.Phase{{Until: 1 << 62, RatePerMinute: ratePerMinute}},
		QoSLevel:     workload.QoSHigh,
	}
}

// Result aggregates one run's measurements.
type Result struct {
	// SuccessRate is the cumulative composition success rate over every
	// request in the run.
	SuccessRate float64
	// Requests is the number of composition requests issued.
	Requests int64
	// Messages are the raw control-message counters.
	Messages metrics.Counts
	// OverheadPerMinute is the algorithm-appropriate overhead figure:
	// probes (+ returns) for all algorithms, plus global-state update and
	// aggregation messages for the algorithms that consume global state
	// (§4.2's accounting).
	OverheadPerMinute float64
	// PhaseBreakdown attributes control messages to protocol phases.
	PhaseBreakdown PhaseOverhead
	// SuccessSeries samples the success rate per sampling window.
	SuccessSeries []metrics.Point
	// RatioSeries samples the probing ratio per sampling window.
	RatioSeries []metrics.Point
	// MeanProbeLatency is the average probing round trip.
	MeanProbeLatency time.Duration
	// MeanPhi averages the congestion metric of committed compositions.
	MeanPhi float64
	// Reprofiles counts tuner profiling sweeps (0 without tuning).
	Reprofiles int
	// Failures and Disrupted count injected node crashes and the
	// sessions they terminated early.
	Failures  int64
	Disrupted int64
	// Recomposed counts disrupted sessions successfully re-composed.
	Recomposed int64
}

// PhaseOverhead splits a run's control messages into the protocol's
// phases: probing (probes + returns), state maintenance (updates +
// aggregations), commit (confirmations), and discovery.
type PhaseOverhead struct {
	Probing      int64 `json:"probing"`
	StateUpdates int64 `json:"state_updates"`
	Commit       int64 `json:"commit"`
	Discovery    int64 `json:"discovery"`
}

func phaseBreakdown(c metrics.Counts) PhaseOverhead {
	return PhaseOverhead{
		Probing:      c.Probes + c.ProbeReturns,
		StateUpdates: c.StateUpdates + c.Aggregations,
		Commit:       c.Confirmations,
		Discovery:    c.Discovery,
	}
}

func (r *RunConfig) withDefaults() RunConfig {
	cfg := *r
	if cfg.State == 0 {
		cfg.State = StateCoarse
	}
	if cfg.QoSLevel == 0 {
		cfg.QoSLevel = workload.QoSHigh
	}
	if cfg.GlobalStateConfig == (state.GlobalConfig{}) {
		cfg.GlobalStateConfig = state.DefaultGlobalConfig()
	}
	if cfg.TraceCap <= 0 {
		cfg.TraceCap = 60
	}
	if cfg.RepairTime <= 0 {
		cfg.RepairTime = 10 * time.Minute
	}
	return cfg
}

// Run executes one simulation on the platform and reports its results.
func Run(p *Platform, rc RunConfig) (*Result, error) {
	cfg := rc.withDefaults()
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("experiment: Duration %v <= 0", cfg.Duration)
	}
	// The outage schedule is drawn before the run from its own seed, so a
	// run's arrivals are the same with failures on or off.
	r, err := newRun(p, cfg, faults.PoissonCrashes(cfg.Seed*1_000_003+5, p.Mesh.NumNodes(),
		cfg.FailuresPerMinute, cfg.Duration, cfg.RepairTime))
	if err != nil {
		return nil, err
	}
	return r.execute()
}

// newRun builds one simulation on the platform whose nodes crash on the
// given schedule.
func newRun(p *Platform, cfg RunConfig, crashes []faults.Crash) (*run, error) {
	clk := clock.NewVirtual()
	epoch := clk.Now()
	now := func() time.Duration { return clk.Since(epoch) }
	rng := rand.New(rand.NewSource(cfg.Seed))
	counters := &metrics.Counters{}
	ledger := state.NewLedger(p.Mesh, p.Config.NodeCapacity, now)

	gcfg := cfg.GlobalStateConfig
	if cfg.State == StateFrozen {
		// A threshold just below 1 never fires for realistic loads.
		gcfg.UpdateThreshold = 0.99
	}
	global, err := state.NewGlobal(ledger, p.Mesh, gcfg, counters)
	if err != nil {
		return nil, err
	}

	outages, err := faults.New(faults.Config{Crashes: crashes, Clock: clk})
	if err != nil {
		return nil, err
	}
	registry := discovery.NewRegistry(p.Catalog, p.Mesh.NumNodes(), counters)
	registry.SetOutages(outages)
	if cfg.Tracer != nil {
		// Trace timestamps follow the simulated clock, so a recorded
		// trace replays onto the same timeline the run reports.
		cfg.Tracer.SetClock(now)
	}
	env := core.Env{
		Mesh:     p.Mesh,
		Catalog:  p.Catalog,
		Registry: registry,
		Ledger:   ledger,
		Global:   global,
		Counters: counters,
		Now:      now,
		Rand:     rng,
		Tracer:   cfg.Tracer,
		Obs:      cfg.Registry,
	}
	ccfg := core.Config{
		Algorithm:           cfg.Algorithm,
		ProbingRatio:        cfg.ProbingRatio,
		HoldTTL:             10 * time.Second,
		TransientAllocation: true,
		Selection:           cfg.Selection,
		MaxProbesPerRequest: cfg.MaxProbesPerRequest,
	}
	composer, err := core.NewComposer(env, ccfg)
	if err != nil {
		return nil, err
	}

	wcfg := workload.DefaultConfig(p.Library, p.Mesh.NumNodes())
	wcfg.Level = cfg.QoSLevel
	if cfg.WorkloadOverride != nil {
		cfg.WorkloadOverride(&wcfg)
	}
	gen, err := workload.NewGenerator(wcfg, rng)
	if err != nil {
		return nil, err
	}
	var arrivals *workload.Arrivals
	if len(cfg.Replay) == 0 {
		arrivals, err = workload.NewArrivals(cfg.Phases, rng)
		if err != nil {
			return nil, err
		}
	}

	r := &run{
		cfg:      cfg,
		platform: p,
		clock:    clk,
		now:      now,
		rng:      rng,
		counters: counters,
		ledger:   ledger,
		global:   global,
		composer: composer,
		crashes:  crashes,
		outages:  outages,
		gen:      gen,
		arrivals: arrivals,
		active:   make(map[int64]*activeSession),
	}
	if cfg.Tuning != nil {
		tuner, err := tuning.NewTuner(*cfg.Tuning, r.profileAlpha)
		if err != nil {
			return nil, err
		}
		r.tuner = tuner
		if err := composer.SetProbingRatio(tuner.Ratio()); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// run carries one simulation's mutable state.
type run struct {
	cfg      RunConfig
	platform *Platform
	// clock is the run's discrete-event scheduler: every event chain is
	// an AfterFunc on it, fired in (deadline, registration) order by one
	// Advance over the run. now is the virtual time since the run began.
	clock    *clock.Virtual
	now      func() time.Duration
	rng      *rand.Rand
	counters *metrics.Counters
	ledger   *state.Ledger
	global   *state.Global
	composer *core.Composer
	crashes  []faults.Crash
	outages  *faults.Injector // reports the crashes' windows; nil without any
	gen      *workload.Generator
	arrivals *workload.Arrivals
	tuner    *tuning.Tuner

	active        map[int64]*activeSession // session id -> live state
	disrupted     int64
	recomposed    int64
	nextRecompose int64

	sampler      metrics.SuccessSampler
	successSer   metrics.Series
	ratioSer     metrics.Series
	trace        []*component.Request
	totalLatency time.Duration
	latencyCount int64
	totalPhi     float64
	phiCount     int64
	runErr       error
}

func (r *run) fail(err error) {
	if r.runErr == nil {
		r.runErr = err
	}
}

func (r *run) execute() (*Result, error) {
	if err := r.schedule(); err != nil {
		return nil, err
	}
	r.clock.Advance(r.cfg.Duration)
	return r.result()
}

// schedule starts the run's event chains on its clock.
func (r *run) schedule() error {
	// Arrival chain: either the synthetic Poisson process or a recorded
	// trace replayed at its original arrival times.
	if len(r.cfg.Replay) > 0 {
		for _, rec := range r.cfg.Replay {
			req, err := rec.Request()
			if err != nil {
				return err
			}
			// trace.Read rejects negative arrivals, so at is never before
			// the run's start.
			at := rec.Arrival()
			if at >= r.cfg.Duration {
				continue
			}
			r.clock.AfterFunc(at, func() { r.composeArrival(req) })
		}
	} else {
		r.clock.AfterFunc(r.arrivals.NextAfter(0), r.onArrival)
	}
	// Sampling chain.
	r.clock.AfterFunc(samplePeriod, r.onSample)
	// Virtual-link aggregation chain (§3.2).
	if r.cfg.State == StateCoarse {
		r.clock.AfterFunc(r.global.Period(), r.onAggregate)
	}
	// Node crashes: a crashed node's components leave discovery for the
	// crash window (the registry reads the injector), and its sessions
	// end at the crash.
	for _, cr := range r.crashes {
		r.clock.AfterFunc(cr.At, func() { r.disruptSessionsOn(cr.Node) })
	}
	return nil
}

// result reports the run once its clock has passed the duration.
func (r *run) result() (*Result, error) {
	if r.runErr != nil {
		return nil, r.runErr
	}
	if r.cfg.TraceWriter != nil {
		if err := r.cfg.TraceWriter.Flush(); err != nil {
			return nil, err
		}
	}

	rate, requests := r.sampler.Cumulative()
	res := &Result{
		SuccessRate:   rate,
		Requests:      requests,
		Messages:      r.counters.Snapshot(),
		SuccessSeries: r.successSer.Points(),
		RatioSeries:   r.ratioSer.Points(),
	}
	minutes := r.cfg.Duration.Minutes()
	res.OverheadPerMinute = float64(overheadMessages(r.cfg.Algorithm, res.Messages)) / minutes
	res.PhaseBreakdown = phaseBreakdown(res.Messages)
	if r.latencyCount > 0 {
		res.MeanProbeLatency = time.Duration(int64(r.totalLatency) / r.latencyCount)
	}
	if r.phiCount > 0 {
		res.MeanPhi = r.totalPhi / float64(r.phiCount)
	}
	if r.tuner != nil {
		res.Reprofiles = r.tuner.Reprofiles()
	}
	res.Failures = int64(len(r.crashes))
	res.Disrupted = r.disrupted
	res.Recomposed = r.recomposed
	r.publishInstruments(res)
	return res, nil
}

// publishInstruments mirrors the run's results into the obs registry so
// tools dump one snapshot covering both trace and counters.
func (r *run) publishInstruments(res *Result) {
	reg := r.cfg.Registry
	if reg == nil {
		return
	}
	reg.Counter("experiment.requests").Add(res.Requests)
	reg.Counter("experiment.messages.probes").Add(res.Messages.Probes)
	reg.Counter("experiment.messages.probe_returns").Add(res.Messages.ProbeReturns)
	reg.Counter("experiment.messages.state_updates").Add(res.Messages.StateUpdates)
	reg.Counter("experiment.messages.aggregations").Add(res.Messages.Aggregations)
	reg.Counter("experiment.messages.confirmations").Add(res.Messages.Confirmations)
	reg.Counter("experiment.messages.discovery").Add(res.Messages.Discovery)
	reg.Gauge("experiment.success_rate").Set(res.SuccessRate)
	reg.Gauge("experiment.overhead_per_minute").Set(res.OverheadPerMinute)
	reg.Gauge("experiment.mean_phi").Set(res.MeanPhi)
}

// overheadMessages applies the paper's per-algorithm overhead accounting:
// exhaustive probing for Optimal, probing plus global-state maintenance
// for the global-state consumers (ACP, SP), probing only for RP and the
// direct heuristics.
func overheadMessages(alg core.Algorithm, c metrics.Counts) int64 {
	switch alg {
	case core.AlgACP, core.AlgSP:
		return c.Probes + c.ProbeReturns + c.StateUpdates + c.Aggregations
	default:
		return c.Probes + c.ProbeReturns
	}
}

// onArrival composes one freshly drawn request and schedules the next
// arrival.
func (r *run) onArrival() {
	req := r.gen.Next()
	r.composeArrival(req)

	now := r.now()
	if next := r.arrivals.NextAfter(now); next < r.cfg.Duration {
		r.clock.AfterFunc(next-now, r.onArrival)
	}
}

// composeArrival runs the composition pipeline for one arriving request.
func (r *run) composeArrival(req *component.Request) {
	r.recordTrace(req)
	if r.cfg.TraceWriter != nil {
		if err := r.cfg.TraceWriter.Write(trace.FromRequest(req, r.now())); err != nil {
			r.fail(err)
			return
		}
	}

	if r.cfg.State == StateFresh {
		r.global.ForceRefresh()
	}

	outcome, err := r.composer.Probe(req)
	if err != nil {
		r.fail(err)
		return
	}
	if !outcome.Success() {
		r.sampler.Record(false)
		return
	}
	r.totalLatency += outcome.Latency
	r.latencyCount++
	// The confirmation travels after the probing round trip; the
	// transient holds bridge the gap.
	r.clock.AfterFunc(outcome.Latency, func() { r.onConfirm(outcome) })
}

// onConfirm commits a successful composition and schedules session end.
// The composition fails instead when a node it chose crashed during the
// probing round trip (that crash has already ended the node's sessions),
// or when the commit finds resources changed during it (possible only
// without transient allocation, or after hold expiry).
func (r *run) onConfirm(outcome *core.Outcome) {
	if r.onDownNode(outcome.Best.Components) || r.composer.Commit(outcome) != nil {
		r.composer.Abort(outcome.Request.ID)
		r.sampler.Record(false)
		return
	}
	r.sampler.Record(true)
	r.totalPhi += outcome.Best.Phi
	r.phiCount++
	r.trackSession(outcome)
}

// onDownNode reports whether any of the components is on a node the
// outage schedule has down now.
func (r *run) onDownNode(ids []component.ComponentID) bool {
	for _, id := range ids {
		if r.outages.Down(r.platform.Catalog.Component(id).Node) {
			return true
		}
	}
	return false
}

// activeSession is the run's record of one committed session.
type activeSession struct {
	request *component.Request
	nodes   []int
}

// trackSession registers a committed session's node usage and schedules
// its natural end.
func (r *run) trackSession(outcome *core.Outcome) {
	id := outcome.Request.ID
	nodes := make([]int, 0, len(outcome.Best.Components))
	for _, cid := range outcome.Best.Components {
		nodes = append(nodes, r.platform.Catalog.Component(cid).Node)
	}
	r.active[id] = &activeSession{request: outcome.Request, nodes: nodes}
	r.clock.AfterFunc(outcome.Request.Duration, func() {
		r.composer.Release(id)
		delete(r.active, id)
	})
}

// disruptSessionsOn terminates the sessions placed on a crashed node.
func (r *run) disruptSessionsOn(node int) {
	var hit []int64
	for id, sess := range r.active {
		for _, n := range sess.nodes {
			if n == node {
				hit = append(hit, id)
				break
			}
		}
	}
	// Sort for deterministic processing order (map iteration is random).
	sort.Slice(hit, func(i, j int) bool { return hit[i] < hit[j] })
	for _, id := range hit {
		sess := r.active[id]
		r.composer.Release(id)
		delete(r.active, id)
		r.disrupted++
		if r.cfg.RecomposeOnFailure {
			r.recompose(sess.request)
		}
	}
}

// recompose re-runs composition for a disrupted session: the same
// function graph and requirements under a fresh request identity,
// counting a recovery on success. Recoveries do not feed the
// success-rate sampler: the paper's u(t) measures first-time
// composition.
func (r *run) recompose(original *component.Request) {
	r.nextRecompose++
	replay := *original
	replay.ID = 1_000_000_000 + r.nextRecompose
	outcome, err := r.composer.Probe(&replay)
	if err != nil {
		r.fail(err)
		return
	}
	if !outcome.Success() {
		return
	}
	if err := r.composer.Commit(outcome); err != nil {
		r.composer.Abort(replay.ID)
		return
	}
	r.recomposed++
	r.trackSession(outcome)
}

// onSample closes a sampling window: record the series, drive the tuner,
// and reschedule.
func (r *run) onSample() {
	rate, n := r.sampler.Roll()
	now := r.now()
	if n > 0 {
		r.successSer.Add(now, rate)
	}
	if r.tuner != nil && n > 0 {
		if r.tuner.Observe(rate) {
			if err := r.composer.SetProbingRatio(r.tuner.Ratio()); err != nil {
				r.fail(err)
			}
		}
		r.ratioSer.Add(now, r.tuner.Ratio())
	} else {
		r.ratioSer.Add(now, r.composer.ProbingRatio())
	}
	if now < r.cfg.Duration {
		r.clock.AfterFunc(samplePeriod, r.onSample)
	}
}

// onAggregate fires the periodic virtual-link aggregation.
func (r *run) onAggregate() {
	r.global.Aggregate()
	if r.now() < r.cfg.Duration {
		r.clock.AfterFunc(r.global.Period(), r.onAggregate)
	}
}

// recordTrace keeps the most recent requests for the tuner's replay.
func (r *run) recordTrace(req *component.Request) {
	if r.tuner == nil {
		return
	}
	if len(r.trace) >= r.cfg.TraceCap {
		copy(r.trace, r.trace[1:])
		r.trace = r.trace[:len(r.trace)-1]
	}
	r.trace = append(r.trace, req)
}

// profileAlpha estimates the success rate at the given probing ratio by
// shadow-composing the recent request trace against the current system
// state: no transient holds, no commits, private message counters — a
// pure measurement, the simulator's stand-in for §3.4's trace replay.
func (r *run) profileAlpha(alpha float64) float64 {
	if len(r.trace) == 0 {
		return 1
	}
	shadowCounters := &metrics.Counters{}
	registry := discovery.NewRegistry(r.platform.Catalog, r.platform.Mesh.NumNodes(), shadowCounters)
	registry.SetOutages(r.outages)
	env := core.Env{
		Mesh:     r.platform.Mesh,
		Catalog:  r.platform.Catalog,
		Registry: registry,
		Ledger:   r.ledger,
		Global:   r.global,
		Counters: shadowCounters,
		Now:      r.now,
		Rand:     r.rng,
	}
	cfg := core.Config{
		Algorithm:           r.cfg.Algorithm,
		ProbingRatio:        alpha,
		HoldTTL:             10 * time.Second,
		TransientAllocation: false,
		Selection:           r.cfg.Selection,
		MaxProbesPerRequest: r.cfg.MaxProbesPerRequest,
	}
	shadow, err := core.NewComposer(env, cfg)
	if err != nil {
		r.fail(err)
		return 0
	}
	success := 0
	for i, req := range r.trace {
		replay := *req
		replay.ID = -(int64(i) + 1) // shadow owner IDs never collide
		out, err := shadow.Probe(&replay)
		if err != nil {
			r.fail(err)
			return 0
		}
		if out.Success() {
			success++
		}
	}
	return float64(success) / float64(len(r.trace))
}
