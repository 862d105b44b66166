package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/discovery"
	"repro/internal/metrics"
	"repro/internal/overlay"
	"repro/internal/qos"
	"repro/internal/state"
	"repro/internal/topology"
)

// testClock is a settable virtual clock that counts how often it is read.
type testClock struct {
	now   time.Duration
	reads int
}

func (c *testClock) Now() time.Duration { c.reads++; return c.now }

// testEnv builds a small but fully wired system: 200 IP nodes, a 30-node
// overlay, 10 functions with 6 candidates each.
func testEnv(t *testing.T, seed int64) (Env, *testClock) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	tcfg := topology.DefaultConfig()
	tcfg.Nodes = 200
	g, err := topology.Generate(tcfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	ocfg := overlay.DefaultConfig()
	ocfg.Nodes = 30
	mesh, err := overlay.Build(g, ocfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := component.DefaultPlacementConfig()
	pcfg.NumFunctions = 10
	pcfg.ComponentsPerNode = 2
	cat, err := component.Place(mesh.NumNodes(), pcfg, rng)
	if err != nil {
		t.Fatal(err)
	}

	clk := &testClock{}
	counters := &metrics.Counters{}
	ledger := state.NewLedger(mesh, qos.Resources{CPU: 100, Memory: 1000}, clk.Now)
	global, err := state.NewGlobal(ledger, mesh, state.DefaultGlobalConfig(), counters)
	if err != nil {
		t.Fatal(err)
	}
	return Env{
		Mesh:     mesh,
		Catalog:  cat,
		Registry: discovery.NewRegistry(cat, mesh.NumNodes(), counters),
		Ledger:   ledger,
		Global:   global,
		Counters: counters,
		Now:      clk.Now,
		Rand:     rng,
	}, clk
}

// freeOn is what an owner that holds nothing reads of the node at the
// clock's instant: its plain availability.
func freeOn(env Env, node int) qos.Resources {
	return env.Ledger.NodeAvailableForAt(env.Now(), -1, node)
}

// easyRequest builds a request with generous QoS and modest resource
// requirements over a 3-function path.
func easyRequest(id int64) *component.Request {
	g := component.NewPathGraph([]component.FunctionID{0, 1, 2})
	return &component.Request{
		ID:           id,
		Graph:        g,
		QoSReq:       qos.Vector{Delay: 100000, LossCost: qos.LossCost(0.9)},
		ResReq:       []qos.Resources{{CPU: 10, Memory: 100}, {CPU: 10, Memory: 100}, {CPU: 10, Memory: 100}},
		BandwidthReq: 100,
		Client:       3,
		Duration:     10 * time.Minute,
	}
}

func mustComposer(t *testing.T, env Env, cfg Config) *Composer {
	t.Helper()
	c, err := NewComposer(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewComposerValidation(t *testing.T) {
	env, _ := testEnv(t, 1)
	tests := []struct {
		name   string
		env    Env
		mutate func(*Config)
	}{
		{name: "nil mesh", env: func() Env { e := env; e.Mesh = nil; return e }(), mutate: func(c *Config) {}},
		{name: "nil ledger", env: func() Env { e := env; e.Ledger = nil; return e }(), mutate: func(c *Config) {}},
		{name: "nil rand", env: func() Env { e := env; e.Rand = nil; return e }(), mutate: func(c *Config) {}},
		{name: "bad algorithm", env: env, mutate: func(c *Config) { c.Algorithm = 0 }},
		{name: "zero ratio", env: env, mutate: func(c *Config) { c.ProbingRatio = 0 }},
		{name: "ratio above one", env: env, mutate: func(c *Config) { c.ProbingRatio = 1.5 }},
		{name: "zero ttl", env: env, mutate: func(c *Config) { c.HoldTTL = 0 }},
		{name: "negative cap", env: env, mutate: func(c *Config) { c.MaxProbesPerRequest = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if _, err := NewComposer(tt.env, cfg); err == nil {
				t.Error("NewComposer accepted invalid input")
			}
		})
	}
}

func TestNewComposerDefaults(t *testing.T) {
	env, _ := testEnv(t, 2)
	// RP defaults to random selection; others to risk-then-congestion.
	rp := mustComposer(t, env, Config{Algorithm: AlgRP, ProbingRatio: 0.3, HoldTTL: time.Second, TransientAllocation: true})
	if rp.Config().Selection != SelectRandom {
		t.Errorf("RP selection = %v", rp.Config().Selection)
	}
	acp := mustComposer(t, env, Config{Algorithm: AlgACP, ProbingRatio: 0.3, HoldTTL: time.Second, TransientAllocation: true})
	if acp.Config().Selection != SelectRiskThenCongestion {
		t.Errorf("ACP selection = %v", acp.Config().Selection)
	}
	if acp.Config().MaxProbesPerRequest != DefaultConfig().MaxProbesPerRequest {
		t.Errorf("cap not defaulted: %d", acp.Config().MaxProbesPerRequest)
	}
	// Optimal ignores the ratio entirely.
	if _, err := NewComposer(env, Config{Algorithm: AlgOptimal, HoldTTL: time.Second}); err != nil {
		t.Errorf("Optimal rejected without ratio: %v", err)
	}
}

func TestACPComposesEasyRequest(t *testing.T) {
	env, _ := testEnv(t, 3)
	c := mustComposer(t, env, DefaultConfig())
	req := easyRequest(1)
	out, err := c.Probe(req)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success() {
		t.Fatal("ACP failed an easy request")
	}
	comp := out.Best
	if len(comp.Components) != 3 {
		t.Fatalf("composition has %d components", len(comp.Components))
	}
	// Eq. 2: every chosen component provides the required function.
	for pos, id := range comp.Components {
		if got := env.Catalog.Component(id).Function; got != req.Graph.Functions[pos] {
			t.Errorf("position %d: function %d, want %d", pos, got, req.Graph.Functions[pos])
		}
	}
	// Eq. 3: aggregated QoS within requirement.
	if !comp.QoS.Within(req.QoSReq) {
		t.Errorf("composition QoS %v violates requirement %v", comp.QoS, req.QoSReq)
	}
	if comp.Phi <= 0 || math.IsInf(comp.Phi, 1) {
		t.Errorf("phi = %v", comp.Phi)
	}
	if out.ProbesSent <= 0 || out.PathsReturned <= 0 || out.Latency <= 0 {
		t.Errorf("outcome stats: probes=%d paths=%d latency=%v", out.ProbesSent, out.PathsReturned, out.Latency)
	}
}

func TestCompositionQoSIsAggregation(t *testing.T) {
	env, _ := testEnv(t, 4)
	c := mustComposer(t, env, DefaultConfig())
	req := easyRequest(1)
	out, err := c.Probe(req)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success() {
		t.Fatal("probe failed")
	}
	comp := out.Best
	var want qos.Vector
	for _, id := range comp.Components {
		want = want.Add(env.Catalog.Component(id).QoS)
	}
	for _, r := range comp.Routes {
		want = want.Add(r.QoS)
	}
	if math.Abs(want.Delay-comp.QoS.Delay) > 1e-9 || math.Abs(want.LossCost-comp.QoS.LossCost) > 1e-9 {
		t.Errorf("QoS = %v, recomputed %v", comp.QoS, want)
	}
}

func TestCommitAndRelease(t *testing.T) {
	env, _ := testEnv(t, 5)
	c := mustComposer(t, env, DefaultConfig())
	req := easyRequest(1)
	out, err := c.Probe(req)
	if err != nil || !out.Success() {
		t.Fatalf("probe: %v success=%v", err, out.Success())
	}
	if err := c.Commit(out); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if env.Ledger.ActiveSessions() != 1 {
		t.Errorf("ActiveSessions = %d", env.Ledger.ActiveSessions())
	}
	// Confirmation messages: one per component.
	if got := env.Counters.Confirmations.Load(); got != 3 {
		t.Errorf("Confirmations = %d, want 3", got)
	}
	// The chosen nodes carry the committed demand.
	node0 := env.Catalog.Component(out.Best.Components[0]).Node
	if got := freeOn(env, node0); got.CPU > 90 {
		t.Errorf("node %d CPU available = %v after commit", node0, got.CPU)
	}
	c.Release(req.ID)
	if env.Ledger.ActiveSessions() != 0 {
		t.Errorf("ActiveSessions after release = %d", env.Ledger.ActiveSessions())
	}
	for n := 0; n < env.Ledger.NumNodes(); n++ {
		if got := freeOn(env, n); got != (qos.Resources{CPU: 100, Memory: 1000}) {
			t.Fatalf("node %d not restored: %v", n, got)
		}
	}
}

func TestCommitFailsForUnsuccessfulOutcome(t *testing.T) {
	env, _ := testEnv(t, 6)
	c := mustComposer(t, env, DefaultConfig())
	if err := c.Commit(&Outcome{Request: easyRequest(1)}); err == nil {
		t.Error("commit of failed outcome accepted")
	}
	if err := c.Commit(nil); err == nil {
		t.Error("commit of nil outcome accepted")
	}
}

func TestProbeInvalidRequest(t *testing.T) {
	env, _ := testEnv(t, 7)
	c := mustComposer(t, env, DefaultConfig())
	bad := easyRequest(1)
	bad.Duration = 0
	if _, err := c.Probe(bad); err == nil {
		t.Error("invalid request accepted")
	}
	bad2 := easyRequest(2)
	bad2.Client = 999
	if _, err := c.Probe(bad2); err == nil {
		t.Error("out-of-range client accepted")
	}
}

func TestInfeasibleQoSFails(t *testing.T) {
	env, _ := testEnv(t, 8)
	c := mustComposer(t, env, DefaultConfig())
	req := easyRequest(1)
	req.QoSReq = qos.Vector{Delay: 0.001, LossCost: 1e-9} // impossible
	out, err := c.Probe(req)
	if err != nil {
		t.Fatal(err)
	}
	if out.Success() {
		t.Fatal("impossible QoS satisfied")
	}
	// All transient holds must be gone after a failed probe.
	for n := 0; n < env.Ledger.NumNodes(); n++ {
		if got := freeOn(env, n); got != (qos.Resources{CPU: 100, Memory: 1000}) {
			t.Fatalf("node %d holds leaked after failure: %v", n, got)
		}
	}
}

func TestMissingFunctionFails(t *testing.T) {
	env, _ := testEnv(t, 9)
	c := mustComposer(t, env, DefaultConfig())
	req := easyRequest(1)
	req.Graph = component.NewPathGraph([]component.FunctionID{0, 99}) // 99 not deployed
	req.ResReq = req.ResReq[:2]
	out, err := c.Probe(req)
	if err != nil {
		t.Fatal(err)
	}
	if out.Success() {
		t.Error("request with undeployed function succeeded")
	}
}

func TestOptimalProbesEveryCandidate(t *testing.T) {
	env, _ := testEnv(t, 10)
	opt := mustComposer(t, env, Config{Algorithm: AlgOptimal, HoldTTL: time.Second, TransientAllocation: true})
	req := easyRequest(1)
	out, err := opt.Probe(req)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success() {
		t.Fatal("optimal failed an easy request")
	}
	// First hop alone probes every candidate of function 0.
	k := len(env.Catalog.Candidates(0))
	if out.ProbesSent < k {
		t.Errorf("probes sent = %d, want >= %d", out.ProbesSent, k)
	}
	opt.Abort(req.ID)
}

func TestACPCheaperThanOptimal(t *testing.T) {
	probes := func(alg Algorithm, ratio float64) int {
		env, _ := testEnv(t, 11)
		cfg := DefaultConfig()
		cfg.Algorithm = alg
		cfg.ProbingRatio = ratio
		c := mustComposer(t, env, cfg)
		out, err := c.Probe(easyRequest(1))
		if err != nil {
			t.Fatal(err)
		}
		c.Abort(1)
		return out.ProbesSent
	}
	acp := probes(AlgACP, 0.3)
	opt := probes(AlgOptimal, 1)
	if acp >= opt {
		t.Errorf("ACP probes %d not below Optimal %d", acp, opt)
	}
	if acp == 0 {
		t.Error("ACP sent no probes")
	}
}

func TestOptimalPhiIsMinimal(t *testing.T) {
	// On identical fresh systems, Optimal's phi must not exceed ACP's:
	// it evaluates a superset of compositions.
	run := func(alg Algorithm) float64 {
		env, _ := testEnv(t, 12)
		cfg := DefaultConfig()
		cfg.Algorithm = alg
		c := mustComposer(t, env, cfg)
		out, err := c.Probe(easyRequest(1))
		if err != nil || !out.Success() {
			t.Fatalf("%v failed: %v", alg, err)
		}
		c.Abort(1)
		return out.Best.Phi
	}
	if optPhi, acpPhi := run(AlgOptimal), run(AlgACP); optPhi > acpPhi+1e-9 {
		t.Errorf("Optimal phi %v exceeds ACP phi %v", optPhi, acpPhi)
	}
}

func TestTransientAllocationBlocksConcurrentProbes(t *testing.T) {
	env, _ := testEnv(t, 13)
	c := mustComposer(t, env, DefaultConfig())

	// Request 1 probes but has not committed: its holds should make a
	// colliding request see less capacity.
	req1 := easyRequest(1)
	req1.ResReq = []qos.Resources{{CPU: 95, Memory: 950}, {CPU: 95, Memory: 950}, {CPU: 95, Memory: 950}}
	out1, err := c.Probe(req1)
	if err != nil {
		t.Fatal(err)
	}
	if !out1.Success() {
		t.Skip("heavy request infeasible on this seed")
	}

	req2 := easyRequest(2)
	req2.ResReq = req1.ResReq
	out2, err := c.Probe(req2)
	if err != nil {
		t.Fatal(err)
	}
	// Request 2 may still succeed via disjoint nodes, but it must not
	// share any node with request 1's winning composition.
	if out2.Success() {
		used := make(map[int]bool)
		for _, id := range out1.Best.Components {
			used[env.Catalog.Component(id).Node] = true
		}
		for _, id := range out2.Best.Components {
			if used[env.Catalog.Component(id).Node] {
				t.Error("concurrent request admitted onto a transiently held node")
			}
		}
	}
	if err := c.Commit(out1); err != nil {
		t.Errorf("request 1 commit failed: %v", err)
	}
	if out2.Success() {
		if err := c.Commit(out2); err != nil {
			t.Errorf("request 2 commit failed: %v", err)
		}
	}
}

func TestHoldsExpireWithoutCommit(t *testing.T) {
	env, clk := testEnv(t, 14)
	c := mustComposer(t, env, DefaultConfig())
	out, err := c.Probe(easyRequest(1))
	if err != nil || !out.Success() {
		t.Fatalf("probe failed: %v", err)
	}
	// Never committed: after the TTL the holds evaporate.
	clk.now += DefaultConfig().HoldTTL + time.Second
	for n := 0; n < env.Ledger.NumNodes(); n++ {
		if got := freeOn(env, n); got != (qos.Resources{CPU: 100, Memory: 1000}) {
			t.Fatalf("node %d holds survived TTL: %v", n, got)
		}
	}
}

func TestStaticIsDeterministicRandomIsNot(t *testing.T) {
	env, _ := testEnv(t, 15)
	static := mustComposer(t, env, Config{Algorithm: AlgStatic, HoldTTL: time.Second})
	var first []component.ComponentID
	for i := 0; i < 3; i++ {
		out, err := static.Probe(easyRequest(int64(100 + i)))
		if err != nil {
			t.Fatal(err)
		}
		if !out.Success() {
			t.Skip("static choice infeasible on this seed")
		}
		static.Abort(out.Request.ID)
		if first == nil {
			first = out.Best.Components
			continue
		}
		for p := range first {
			if first[p] != out.Best.Components[p] {
				t.Fatal("static algorithm changed its choice")
			}
		}
	}

	random := mustComposer(t, env, Config{Algorithm: AlgRandom, HoldTTL: time.Second})
	seen := make(map[component.ComponentID]bool)
	for i := 0; i < 20; i++ {
		out, err := random.Probe(easyRequest(int64(200 + i)))
		if err != nil {
			t.Fatal(err)
		}
		if out.Success() {
			seen[out.Best.Components[0]] = true
			random.Abort(out.Request.ID)
		}
	}
	if len(seen) < 2 {
		t.Errorf("random algorithm picked only %d distinct first components", len(seen))
	}
}

func TestDAGComposition(t *testing.T) {
	env, _ := testEnv(t, 16)
	c := mustComposer(t, env, Config{Algorithm: AlgOptimal, HoldTTL: time.Second, TransientAllocation: true})
	g, err := component.NewBranchGraph(0, []component.FunctionID{1, 2}, []component.FunctionID{3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	req := &component.Request{
		ID:     1,
		Graph:  g,
		QoSReq: qos.Vector{Delay: 100000, LossCost: qos.LossCost(0.9)},
		ResReq: []qos.Resources{
			{CPU: 5, Memory: 50}, {CPU: 5, Memory: 50}, {CPU: 5, Memory: 50},
			{CPU: 5, Memory: 50}, {CPU: 5, Memory: 50},
		},
		BandwidthReq: 50,
		Client:       0,
		Duration:     5 * time.Minute,
	}
	out, err := c.Probe(req)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success() {
		t.Fatal("DAG request failed")
	}
	comp := out.Best
	if len(comp.Components) != 5 {
		t.Fatalf("components = %d, want 5", len(comp.Components))
	}
	if len(comp.Routes) != len(g.Edges) {
		t.Fatalf("routes = %d, want %d", len(comp.Routes), len(g.Edges))
	}
	for pos, id := range comp.Components {
		if env.Catalog.Component(id).Function != g.Functions[pos] {
			t.Errorf("position %d has wrong function", pos)
		}
	}
	// Routes must connect the actual endpoints of each edge.
	for i, e := range g.Edges {
		from := env.Catalog.Component(comp.Components[e.From]).Node
		to := env.Catalog.Component(comp.Components[e.To]).Node
		want, _ := env.Mesh.RouteBetween(from, to)
		if len(want.Links) != len(comp.Routes[i].Links) {
			t.Errorf("edge %d route mismatch", i)
		}
	}
	if err := c.Commit(out); err != nil {
		t.Errorf("DAG commit: %v", err)
	}
}

func TestProbeBudgetCapsFanout(t *testing.T) {
	env, _ := testEnv(t, 17)
	cfg := Config{Algorithm: AlgRP, ProbingRatio: 1, HoldTTL: time.Second, MaxProbesPerRequest: 5}
	c := mustComposer(t, env, cfg)
	out, err := c.Probe(easyRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if out.ProbesSent > 5 {
		t.Errorf("probes sent = %d, want <= 5", out.ProbesSent)
	}
	c.Abort(1)
}

func TestOptimalChargesExhaustiveTree(t *testing.T) {
	env, _ := testEnv(t, 17)
	c := mustComposer(t, env, Config{Algorithm: AlgOptimal, HoldTTL: time.Second})
	req := easyRequest(1)
	out, err := c.Probe(req)
	if err != nil {
		t.Fatal(err)
	}
	c.Abort(1)
	// The paper's accounting: k + k^2 + k^3 for a 3-function path with k
	// candidates each, regardless of pruning.
	k := len(env.Catalog.Candidates(0))
	want := k + k*k + k*k*k
	if out.ProbesSent != want {
		t.Errorf("exhaustive probes = %d, want %d", out.ProbesSent, want)
	}
	if got := env.Counters.Probes.Load(); got != int64(want) {
		t.Errorf("probe counter = %d, want %d", got, want)
	}
}

func TestSetProbingRatio(t *testing.T) {
	env, _ := testEnv(t, 18)
	c := mustComposer(t, env, DefaultConfig())
	if err := c.SetProbingRatio(0.7); err != nil {
		t.Fatal(err)
	}
	if got := c.ProbingRatio(); got != 0.7 {
		t.Errorf("ProbingRatio = %v", got)
	}
	if err := c.SetProbingRatio(0); err == nil {
		t.Error("ratio 0 accepted")
	}
	if err := c.SetProbingRatio(1.01); err == nil {
		t.Error("ratio > 1 accepted")
	}
}

func TestHigherRatioProbesMore(t *testing.T) {
	run := func(ratio float64) int {
		env, _ := testEnv(t, 19)
		cfg := DefaultConfig()
		cfg.ProbingRatio = ratio
		c := mustComposer(t, env, cfg)
		out, err := c.Probe(easyRequest(1))
		if err != nil {
			t.Fatal(err)
		}
		c.Abort(1)
		return out.ProbesSent
	}
	if lo, hi := run(0.2), run(0.9); lo >= hi {
		t.Errorf("probes at ratio 0.2 (%d) not below ratio 0.9 (%d)", lo, hi)
	}
}

func TestAlgorithmStrings(t *testing.T) {
	tests := []struct {
		alg  Algorithm
		want string
	}{
		{alg: AlgACP, want: "ACP"},
		{alg: AlgOptimal, want: "Optimal"},
		{alg: AlgSP, want: "SP"},
		{alg: AlgRP, want: "RP"},
		{alg: AlgRandom, want: "Random"},
		{alg: AlgStatic, want: "Static"},
		{alg: Algorithm(42), want: "Algorithm(42)"},
	}
	for _, tt := range tests {
		if got := tt.alg.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.alg), got, tt.want)
		}
	}
}

func TestSPReturnsQualifiedComposition(t *testing.T) {
	env, _ := testEnv(t, 20)
	cfg := DefaultConfig()
	cfg.Algorithm = AlgSP
	c := mustComposer(t, env, cfg)
	req := easyRequest(1)
	out, err := c.Probe(req)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success() {
		t.Fatal("SP failed an easy request")
	}
	if !out.Best.QoS.Within(req.QoSReq) {
		t.Error("SP returned an unqualified composition")
	}
	if err := c.Commit(out); err != nil {
		t.Errorf("SP commit: %v", err)
	}
}

func TestRPWorksWithoutGlobalState(t *testing.T) {
	env, _ := testEnv(t, 21)
	cfg := DefaultConfig()
	cfg.Algorithm = AlgRP
	c := mustComposer(t, env, cfg)
	out, err := c.Probe(easyRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success() {
		t.Fatal("RP failed an easy request")
	}
	if err := c.Commit(out); err != nil {
		t.Errorf("RP commit: %v", err)
	}
}

func TestSelectionPolicyAblations(t *testing.T) {
	for _, sel := range []SelectionPolicy{SelectRiskOnly, SelectCongestionOnly, SelectRiskThenCongestion} {
		env, _ := testEnv(t, 22)
		cfg := DefaultConfig()
		cfg.Selection = sel
		c := mustComposer(t, env, cfg)
		out, err := c.Probe(easyRequest(1))
		if err != nil {
			t.Fatalf("selection %d: %v", sel, err)
		}
		if !out.Success() {
			t.Errorf("selection %d failed an easy request", sel)
		}
		c.Abort(1)
	}
}

func TestAbortReleasesHolds(t *testing.T) {
	env, _ := testEnv(t, 23)
	c := mustComposer(t, env, DefaultConfig())
	out, err := c.Probe(easyRequest(1))
	if err != nil || !out.Success() {
		t.Fatalf("probe failed: %v", err)
	}
	c.Abort(1)
	for n := 0; n < env.Ledger.NumNodes(); n++ {
		if got := freeOn(env, n); got != (qos.Resources{CPU: 100, Memory: 1000}) {
			t.Fatalf("node %d holds leaked after abort: %v", n, got)
		}
	}
}

func TestOutcomeSuccess(t *testing.T) {
	if (&Outcome{}).Success() {
		t.Error("empty outcome reports success")
	}
	if !(&Outcome{Best: &Composition{}}).Success() {
		t.Error("outcome with composition reports failure")
	}
}

func TestRankLessBandBehaviour(t *testing.T) {
	less := func(policy SelectionPolicy, ri, ci, rj, cj float64) bool {
		return rankBefore(policy, rankedCand{risk: ri, cong: ci}, rankedCand{risk: rj, cong: cj})
	}
	// Clearly different risks: risk decides.
	if !less(SelectRiskThenCongestion, 0.2, 9.0, 0.5, 0.1) {
		t.Error("lower risk not preferred despite band")
	}
	// Similar risks (within 5%): congestion decides.
	if !less(SelectRiskThenCongestion, 0.50, 0.1, 0.51, 0.9) {
		t.Error("similar risks did not fall back to congestion")
	}
	if less(SelectRiskThenCongestion, 0.50, 0.9, 0.51, 0.1) {
		t.Error("higher congestion preferred at similar risk")
	}
	if !less(SelectRiskOnly, 0.50, 0.9, 0.51, 0.1) {
		t.Error("risk-only policy consulted congestion")
	}
	if !less(SelectCongestionOnly, 0.9, 0.1, 0.1, 0.9) {
		t.Error("congestion-only policy consulted risk")
	}
}
