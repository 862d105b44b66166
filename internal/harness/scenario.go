package harness

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/component"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/qos"
	"repro/internal/substrate"
)

// ScenarioConfig parameterises one randomized simulation run. The zero
// value plus a Seed is a valid fault-injected scenario; every knob the
// generator draws (fault rates, crash schedule, request mix) derives
// from the seed, so the seed alone replays the run.
type ScenarioConfig struct {
	// Seed drives everything: substrate, scheduler, faults, workload.
	Seed int64
	// Requests is how many compose requests the workload issues.
	// Zero means 16.
	Requests int
	// Oracle switches to the model-based reference mode: zero faults,
	// full probing (alpha=1), sequential requests, every decision
	// checked against the centralized exhaustive composer. When false,
	// the run draws a random fault mix and checks only the invariants.
	Oracle bool
}

// Report is the outcome of one scenario run.
type Report struct {
	Seed     int64
	Steps    int
	Requests int
	Admitted int
	// Log is the full step log: which node dispatched which message at
	// which schedule position, and every virtual-clock advance. On a
	// failing seed this is the replay transcript.
	Log []string
}

// bedFunctions is how many stream functions the bed deploys.
const bedFunctions = 4

// bed is the simulation-sized system every harness run plays on: small
// enough that the exhaustive oracle stays fast, large enough for
// multi-node compositions and link contention.
func bed(seed int64) substrate.Config {
	return substrate.Config{
		Seed:              seed,
		IPNodes:           64,
		OverlayNodes:      8,
		NeighborsPerNode:  3,
		NumFunctions:      bedFunctions,
		ComponentsPerNode: 2,
		NodeCapacity:      qos.Resources{CPU: 100, Memory: 1000},
	}
}

// scenarioCluster is the dist engine on the bed.
func scenarioCluster(seed int64) dist.Config {
	cfg := dist.DefaultConfig()
	cfg.Config = bed(seed)
	return cfg
}

// RunScenario executes one seeded scenario end to end: build, drive,
// audit every step, verify quiescent ledger consistency, tear down,
// verify idempotent release and full resource recovery. It returns the
// report and the first invariant violation (nil on a clean run).
func RunScenario(sc ScenarioConfig) (*Report, error) {
	if sc.Requests <= 0 {
		sc.Requests = 16
	}
	wrng := rand.New(rand.NewSource(mix(sc.Seed ^ 0x517e)))

	cfg := scenarioCluster(sc.Seed)
	if sc.Oracle {
		// Full probing makes the dist candidate space exhaustive, which
		// admission parity with AlgOptimal requires.
		cfg.ProbingRatio = 1.0
	} else {
		cfg.Faults = randomFaults(sc.Seed, wrng, cfg)
	}

	s, err := NewSim(cfg, sc.Seed)
	if err != nil {
		return nil, err
	}
	rep := &Report{Seed: sc.Seed, Requests: sc.Requests}
	fail := func(err error) (*Report, error) {
		rep.Steps = s.Steps()
		rep.Log = s.Log()
		return rep, err
	}

	var oracle *Oracle
	if sc.Oracle {
		if oracle, err = NewOracle(s); err != nil {
			return fail(err)
		}
	}

	var outcomes []SessionOutcome
	live := make(map[int64]int) // owner -> outcomes index
	for i := 0; i < sc.Requests; i++ {
		req := randomRequest(wrng, cfg)
		handle, err := s.Cluster.ComposeAsync(req)
		if err != nil {
			return fail(fmt.Errorf("seed %d: compose %d: %v", sc.Seed, i, err))
		}
		// Occasionally keep a second request in flight so protocol
		// rounds interleave (never in oracle mode, which needs the
		// sequential schedule the centralized model assumes).
		if !sc.Oracle && wrng.Float64() < 0.35 && i+1 < sc.Requests {
			i++
			req2 := randomRequest(wrng, cfg)
			h2, err := s.Cluster.ComposeAsync(req2)
			if err != nil {
				return fail(fmt.Errorf("seed %d: compose %d: %v", sc.Seed, i, err))
			}
			if err := s.RunToQuiescence(); err != nil {
				return fail(fmt.Errorf("seed %d: %w", sc.Seed, err))
			}
			o2, err := resolve(req2, h2)
			if err != nil {
				return fail(fmt.Errorf("seed %d: %w", sc.Seed, err))
			}
			outcomes = append(outcomes, o2)
			if o2.Admitted {
				live[o2.Owner] = len(outcomes) - 1
			}
		} else if err := s.RunToQuiescence(); err != nil {
			return fail(fmt.Errorf("seed %d: %w", sc.Seed, err))
		}
		o, err := resolve(req, handle)
		if err != nil {
			return fail(fmt.Errorf("seed %d: %w", sc.Seed, err))
		}
		outcomes = append(outcomes, o)
		if o.Admitted {
			live[o.Owner] = len(outcomes) - 1
			rep.Admitted++
		}
		if oracle != nil {
			if err := oracle.Check(o.Req, o.Owner, o.Comp); err != nil {
				return fail(fmt.Errorf("seed %d: oracle: %w", sc.Seed, err))
			}
		}
		if err := s.Auditor().CheckQuiescent(outcomes); err != nil {
			return fail(fmt.Errorf("seed %d: %w", sc.Seed, err))
		}
		// Randomly close some live sessions mid-run so commits and
		// releases interleave with later probing.
		for _, idx := range sortedLive(live) {
			if wrng.Float64() < 0.4 {
				releaseSession(s, oracle, &outcomes[idx])
				delete(live, outcomes[idx].Owner)
			}
		}
		if err := s.RunToQuiescence(); err != nil {
			return fail(fmt.Errorf("seed %d: %w", sc.Seed, err))
		}
	}

	// Teardown: release every remaining session, settle transient
	// state, and verify the cluster returned to full capacity.
	for _, idx := range sortedLive(live) {
		releaseSession(s, oracle, &outcomes[idx])
	}
	if err := s.RunToQuiescence(); err != nil {
		return fail(fmt.Errorf("seed %d: %w", sc.Seed, err))
	}
	if err := s.Settle(); err != nil {
		return fail(fmt.Errorf("seed %d: %w", sc.Seed, err))
	}
	if err := s.Auditor().CheckQuiescent(outcomes); err != nil {
		return fail(fmt.Errorf("seed %d: after teardown: %w", sc.Seed, err))
	}
	if err := s.Auditor().CheckIdle(); err != nil {
		return fail(fmt.Errorf("seed %d: %w", sc.Seed, err))
	}

	// Release-tombstone idempotency: replaying every admitted session's
	// release must be a no-op — each node's own ledger knows the owner
	// holds nothing anymore.
	for i := range outcomes {
		if outcomes[i].Admitted {
			s.Cluster.Release(outcomes[i].Req, outcomes[i].Comp)
		}
	}
	if err := s.RunToQuiescence(); err != nil {
		return fail(fmt.Errorf("seed %d: during duplicate release: %w", sc.Seed, err))
	}
	if err := s.Settle(); err != nil {
		return fail(fmt.Errorf("seed %d: settling duplicate releases: %w", sc.Seed, err))
	}
	if err := s.Auditor().CheckIdle(); err != nil {
		return fail(fmt.Errorf("seed %d: duplicate release was not idempotent: %w", sc.Seed, err))
	}

	rep.Steps = s.Steps()
	rep.Log = s.Log()
	return rep, nil
}

// resolve reads a handle that must have settled at quiescence.
func resolve(req *component.Request, h *dist.SimHandle) (SessionOutcome, error) {
	comp, err, done := h.Poll()
	if !done {
		return SessionOutcome{}, fmt.Errorf("request %d unresolved at quiescence", h.ReqID)
	}
	out := SessionOutcome{Owner: h.ReqID, Req: req}
	if err == nil {
		out.Admitted = true
		out.Comp = comp
	}
	return out, nil
}

// releaseSession tears one admitted session down on both systems.
func releaseSession(s *Sim, oracle *Oracle, o *SessionOutcome) {
	s.Cluster.Release(o.Req, o.Comp)
	if oracle != nil {
		oracle.Release(o.Owner)
	}
	o.Released = true
}

// sortedLive orders the live-session indices by owner so release
// scheduling is reproducible despite the map.
func sortedLive(live map[int64]int) []int {
	owners := make([]int64, 0, len(live))
	for owner := range live {
		owners = append(owners, owner)
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
	out := make([]int, len(owners))
	for i, owner := range owners {
		out[i] = live[owner]
	}
	return out
}

// randomFaults draws the seed's fault mix: message loss, duplication,
// delivery delay under the tombstone TTL, and up to two node outages.
func randomFaults(seed int64, rng *rand.Rand, cfg dist.Config) *faults.Config {
	fc := &faults.Config{
		Seed:     mix(seed ^ 0xfa17),
		DropProb: rng.Float64() * 0.25,
		DupProb:  rng.Float64() * 0.15,
	}
	if rng.Float64() < 0.7 {
		// Delays must stay under HoldTTL: a commit delayed past its
		// release tombstone would (correctly) be refused, but a release
		// delayed past tombstone expiry is outside the protocol's
		// documented fault envelope.
		fc.MaxDelay = time.Duration(rng.Int63n(int64(cfg.HoldTTL / 4)))
	}
	if n := rng.Intn(3); n > 0 {
		fc.Crashes = faults.RandomCrashes(mix(seed^0xc4a5), cfg.OverlayNodes, n,
			2*time.Second, 300*time.Millisecond)
	}
	return fc
}

// randomRequest draws one pipeline request sized to sometimes contend:
// chains of 2-4 functions, moderate per-position demand, bandwidth
// that can congest shared links.
func randomRequest(rng *rand.Rand, cfg dist.Config) *component.Request {
	length := 2 + rng.Intn(3)
	fns := make([]component.FunctionID, length)
	for i := range fns {
		fns[i] = component.FunctionID(rng.Intn(cfg.NumFunctions))
	}
	res := make([]qos.Resources, length)
	for i := range res {
		res[i] = qos.Resources{
			CPU:    2 + rng.Float64()*10,
			Memory: 20 + rng.Float64()*100,
		}
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
