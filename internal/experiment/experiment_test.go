package experiment

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/faults"
	"repro/internal/substrate"
	"repro/internal/trace"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// smallSystem keeps integration tests fast: a 300-node IP graph with a
// 60-node overlay.
func smallSystem(seed int64) substrate.Config {
	cfg := DefaultSystemConfig()
	cfg.Seed = seed
	cfg.IPNodes = 300
	cfg.OverlayNodes = 60
	cfg.NumFunctions = 20
	return cfg
}

func smallPlatform(t *testing.T, seed int64) *Platform {
	t.Helper()
	p, err := BuildPlatform(smallSystem(seed))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func shortRun(rate float64) RunConfig {
	rc := DefaultRunConfig(rate)
	rc.Duration = 15 * time.Minute
	return rc
}

func TestBuildPlatformValidation(t *testing.T) {
	cfg := smallSystem(1)
	cfg.OverlayNodes = cfg.IPNodes + 1
	if _, err := BuildPlatform(cfg); err == nil {
		t.Error("overlay larger than IP accepted")
	}
	cfg = smallSystem(1)
	cfg.ComponentsPerNode = 0
	if _, err := BuildPlatform(cfg); err == nil {
		t.Error("zero components per node accepted")
	}
}

func TestBuildPlatformShape(t *testing.T) {
	p := smallPlatform(t, 1)
	if p.Mesh.NumNodes() != 60 {
		t.Errorf("overlay nodes = %d", p.Mesh.NumNodes())
	}
	if p.Catalog.NumComponents() != 60 {
		t.Errorf("components = %d", p.Catalog.NumComponents())
	}
	if p.Library.Count() != 20 {
		t.Errorf("templates = %d", p.Library.Count())
	}
}

func TestRunBasic(t *testing.T) {
	p := smallPlatform(t, 1)
	res, err := Run(p, shortRun(20))
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests < 100 {
		t.Errorf("requests = %d, want roughly 300", res.Requests)
	}
	if res.SuccessRate <= 0 || res.SuccessRate > 1 {
		t.Errorf("success rate = %v", res.SuccessRate)
	}
	if res.OverheadPerMinute <= 0 {
		t.Errorf("overhead = %v", res.OverheadPerMinute)
	}
	if len(res.SuccessSeries) == 0 {
		t.Error("no success series recorded")
	}
	if res.MeanProbeLatency <= 0 {
		t.Errorf("mean latency = %v", res.MeanProbeLatency)
	}
	if res.MeanPhi <= 0 {
		t.Errorf("mean phi = %v", res.MeanPhi)
	}
}

func TestRunValidation(t *testing.T) {
	p := smallPlatform(t, 1)
	rc := shortRun(20)
	rc.Duration = 0
	if _, err := Run(p, rc); err == nil {
		t.Error("zero duration accepted")
	}
	rc = shortRun(20)
	rc.Algorithm = core.Algorithm(99)
	if _, err := Run(p, rc); err == nil {
		t.Error("bad algorithm accepted")
	}
	rc = shortRun(20)
	rc.Phases = nil
	if _, err := Run(p, rc); err == nil {
		t.Error("empty phases accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	p := smallPlatform(t, 2)
	r1, err := Run(p, shortRun(30))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(p, shortRun(30))
	if err != nil {
		t.Fatal(err)
	}
	if r1.SuccessRate != r2.SuccessRate || r1.Requests != r2.Requests {
		t.Errorf("identical runs differ: (%v, %d) vs (%v, %d)",
			r1.SuccessRate, r1.Requests, r2.SuccessRate, r2.Requests)
	}
	if r1.Messages != r2.Messages {
		t.Errorf("message counters differ: %v vs %v", r1.Messages, r2.Messages)
	}
}

func TestRunSeedChangesWorkload(t *testing.T) {
	p := smallPlatform(t, 2)
	rc := shortRun(30)
	r1, err := Run(p, rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.Seed = 99
	r2, err := Run(p, rc)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Requests == r2.Requests && r1.Messages == r2.Messages {
		t.Error("different seeds produced identical runs")
	}
}

// TestRunAlgorithmOrdering is the headline sanity check of Figure 6(a):
// under contention, Optimal >= ACP > Random > Static within tolerance.
func TestRunAlgorithmOrdering(t *testing.T) {
	p := smallPlatform(t, 3)
	success := make(map[core.Algorithm]float64)
	for _, alg := range []core.Algorithm{core.AlgOptimal, core.AlgACP, core.AlgRandom, core.AlgStatic} {
		rc := shortRun(15)
		rc.Algorithm = alg
		res, err := Run(p, rc)
		if err != nil {
			t.Fatal(err)
		}
		success[alg] = res.SuccessRate
	}
	const tol = 0.03 // sampling noise on short runs
	if success[core.AlgOptimal]+tol < success[core.AlgACP] {
		t.Errorf("Optimal (%v) below ACP (%v)", success[core.AlgOptimal], success[core.AlgACP])
	}
	// On this small system ACP and Random can be within noise of each
	// other; the robust claims are Optimal > Random and everything >
	// Static.
	if success[core.AlgOptimal] <= success[core.AlgRandom] {
		t.Errorf("Optimal (%v) not above Random (%v)", success[core.AlgOptimal], success[core.AlgRandom])
	}
	if success[core.AlgACP] <= success[core.AlgStatic] {
		t.Errorf("ACP (%v) not above Static (%v)", success[core.AlgACP], success[core.AlgStatic])
	}
	if success[core.AlgRandom] <= success[core.AlgStatic] {
		t.Errorf("Random (%v) not above Static (%v)", success[core.AlgRandom], success[core.AlgStatic])
	}
}

// TestRunOverheadOrdering is the headline sanity check of Figure 6(b).
func TestRunOverheadOrdering(t *testing.T) {
	p := smallPlatform(t, 4)
	overhead := make(map[core.Algorithm]float64)
	for _, alg := range []core.Algorithm{core.AlgOptimal, core.AlgACP} {
		rc := shortRun(20)
		rc.Algorithm = alg
		res, err := Run(p, rc)
		if err != nil {
			t.Fatal(err)
		}
		overhead[alg] = res.OverheadPerMinute
	}
	if overhead[core.AlgOptimal] < 5*overhead[core.AlgACP] {
		t.Errorf("Optimal overhead (%v) not well above ACP (%v)",
			overhead[core.AlgOptimal], overhead[core.AlgACP])
	}
}

func TestRunWithTuner(t *testing.T) {
	p := smallPlatform(t, 5)
	rc := shortRun(25)
	rc.ProbingRatio = 0.1
	tcfg := tuning.DefaultConfig()
	rc.Tuning = &tcfg
	res, err := Run(p, rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reprofiles == 0 {
		t.Error("tuner never profiled")
	}
	if len(res.RatioSeries) == 0 {
		t.Error("no ratio series recorded")
	}
}

func TestRunDynamicPhases(t *testing.T) {
	p := smallPlatform(t, 6)
	rc := shortRun(0)
	rc.Phases = []workload.Phase{
		{Until: 5 * time.Minute, RatePerMinute: 10},
		{Until: 1 << 62, RatePerMinute: 50},
	}
	rc.Duration = 10 * time.Minute
	res, err := Run(p, rc)
	if err != nil {
		t.Fatal(err)
	}
	// ~50 requests in phase 1, ~250 in phase 2.
	if res.Requests < 150 || res.Requests > 450 {
		t.Errorf("requests = %d, want ~300", res.Requests)
	}
}

func TestRunStatePolicies(t *testing.T) {
	p := smallPlatform(t, 7)
	rates := make(map[StatePolicy]float64)
	for _, pol := range []StatePolicy{StateCoarse, StateFresh, StateFrozen} {
		rc := shortRun(25)
		rc.State = pol
		res, err := Run(p, rc)
		if err != nil {
			t.Fatal(err)
		}
		rates[pol] = res.SuccessRate
	}
	// Fresh state cannot be (much) worse than frozen state.
	if rates[StateFresh]+0.05 < rates[StateFrozen] {
		t.Errorf("always-fresh state (%v) below frozen state (%v)", rates[StateFresh], rates[StateFrozen])
	}
}

func TestWorkloadOverrideApplied(t *testing.T) {
	p := smallPlatform(t, 9)
	rc := shortRun(30)
	// Make every request impossible, a delay bound below any component's
	// processing delay: success collapses to ~0.
	rc.WorkloadOverride = func(w *workload.Config) {
		w.DelayReqPerFunctionMin = 0.001
		w.DelayReqPerFunctionMax = 0.002
	}
	res, err := Run(p, rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessRate > 0.01 {
		t.Errorf("success rate = %v with impossible requirements", res.SuccessRate)
	}
}

func TestOverheadAccountingPerAlgorithm(t *testing.T) {
	p := smallPlatform(t, 10)
	rc := shortRun(25)
	rc.Algorithm = core.AlgACP
	res, err := Run(p, rc)
	if err != nil {
		t.Fatal(err)
	}
	// ACP's reported overhead must include state maintenance.
	want := float64(res.Messages.Probes+res.Messages.ProbeReturns+res.Messages.StateUpdates+res.Messages.Aggregations) /
		rc.Duration.Minutes()
	if math.Abs(res.OverheadPerMinute-want) > 1e-9 {
		t.Errorf("ACP overhead = %v, want %v", res.OverheadPerMinute, want)
	}

	rc.Algorithm = core.AlgRP
	res, err = Run(p, rc)
	if err != nil {
		t.Fatal(err)
	}
	want = float64(res.Messages.Probes+res.Messages.ProbeReturns) / rc.Duration.Minutes()
	if math.Abs(res.OverheadPerMinute-want) > 1e-9 {
		t.Errorf("RP overhead = %v, want %v", res.OverheadPerMinute, want)
	}
}

func TestSessionsDrainAfterRun(t *testing.T) {
	// All sessions end within the run when duration exceeds max session
	// length plus the last arrival: use a long quiet tail.
	p := smallPlatform(t, 11)
	rc := shortRun(0)
	rc.Phases = []workload.Phase{
		{Until: 5 * time.Minute, RatePerMinute: 20},
		{Until: 1 << 62, RatePerMinute: 0.0001}, // effectively silent
	}
	rc.Duration = 25 * time.Minute
	if _, err := Run(p, rc); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithFailures(t *testing.T) {
	p := smallPlatform(t, 13)
	rc := shortRun(30)
	rc.FailuresPerMinute = 0.5
	rc.RepairTime = 5 * time.Minute
	res, err := Run(p, rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatal("no failures injected at 0.5/min over 15 minutes")
	}
	if res.Disrupted == 0 {
		t.Log("failures hit only idle nodes on this seed")
	}
	if res.Recomposed != 0 {
		t.Errorf("recompositions without RecomposeOnFailure: %d", res.Recomposed)
	}
	// Crashes live in the run's own outage schedule: a later run on the
	// shared platform behaves exactly like a fresh platform's run.
	base, err := Run(p, shortRun(30))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(smallPlatform(t, 13), shortRun(30))
	if err != nil {
		t.Fatal(err)
	}
	if base.SuccessRate != fresh.SuccessRate || base.Messages != fresh.Messages {
		t.Error("failure run mutated the shared platform catalog")
	}
}

func TestRunFailuresWithRecomposition(t *testing.T) {
	p := smallPlatform(t, 14)
	rc := shortRun(30)
	rc.FailuresPerMinute = 1
	rc.RepairTime = 5 * time.Minute
	rc.RecomposeOnFailure = true
	res, err := Run(p, rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disrupted > 0 && res.Recomposed == 0 {
		t.Errorf("%d sessions disrupted, none recomposed", res.Disrupted)
	}
	if res.Recomposed > res.Disrupted {
		t.Errorf("recomposed %d > disrupted %d", res.Recomposed, res.Disrupted)
	}
}

func TestRunTraceRecordAndReplay(t *testing.T) {
	p := smallPlatform(t, 17)

	// Record a run's workload.
	var buf bytes.Buffer
	rc := shortRun(20)
	rc.TraceWriter = trace.NewWriter(&buf)
	recorded, err := Run(p, rc)
	if err != nil {
		t.Fatal(err)
	}

	records, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(records)) != recorded.Requests {
		t.Fatalf("trace has %d records for %d requests", len(records), recorded.Requests)
	}

	// Replaying the trace reproduces the run exactly: same requests at
	// the same times against the same platform.
	replay := shortRun(20)
	replay.Replay = records
	replayed, err := Run(p, replay)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Requests != recorded.Requests {
		t.Errorf("replay issued %d requests, recording had %d", replayed.Requests, recorded.Requests)
	}
	if replayed.SuccessRate != recorded.SuccessRate {
		t.Errorf("replay success %v, recording %v", replayed.SuccessRate, recorded.SuccessRate)
	}
	if replayed.Messages.Probes != recorded.Messages.Probes {
		t.Errorf("replay probes %d, recording %d", replayed.Messages.Probes, recorded.Messages.Probes)
	}
}

func TestRunReplayCutoff(t *testing.T) {
	p := smallPlatform(t, 18)
	var buf bytes.Buffer
	rc := shortRun(20)
	rc.TraceWriter = trace.NewWriter(&buf)
	if _, err := Run(p, rc); err != nil {
		t.Fatal(err)
	}
	records, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Replay with half the duration: later arrivals are dropped.
	replay := shortRun(20)
	replay.Replay = records
	replay.Duration = rc.Duration / 2
	res, err := Run(p, replay)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests >= int64(len(records)) {
		t.Errorf("cutoff replay issued %d of %d requests", res.Requests, len(records))
	}
}

// TestKnownCrashHidesNodeForItsWindow runs one crash on a node that
// carries a session: the session ends at the crash, discovery offers none
// of the node's components until the crash window closes and all of them
// after it, and nothing composed inside the window — the disrupted
// sessions' recompositions included — is placed on the node. The checks
// are events on the run's own clock.
func TestKnownCrashHidesNodeForItsWindow(t *testing.T) {
	p := smallPlatform(t, 13)
	rc := shortRun(30)
	rc.RepairTime = 3 * time.Minute
	rc.RecomposeOnFailure = true
	cfg := rc.withDefaults()
	const at = 6 * time.Minute
	end := at + cfg.RepairTime
	crashOn := func(node int) *run {
		r, err := newRun(p, cfg, []faults.Crash{{Node: node, At: at, Downtime: cfg.RepairTime}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Crashes do not move arrivals, so a crash-free run shows which
	// sessions are live at the crash. Crash the first of their nodes, in
	// session order, whose disrupted sessions are recomposed at least
	// once: the window check needs a recomposition inside the window.
	dry, err := newRun(p, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var live []int64
	nodesOf := make(map[int64][]int)
	dry.clock.AfterFunc(at, func() {
		for id, sess := range dry.active {
			live = append(live, id)
			nodesOf[id] = sess.nodes
		}
	})
	if _, err := dry.execute(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	node, victim := -1, int64(-1)
search:
	for _, id := range live {
		for _, n := range nodesOf[id] {
			if res, err := crashOn(n).execute(); err == nil && res.Recomposed > 0 {
				node, victim = n, id
				break search
			}
		}
	}
	if node < 0 {
		t.Fatalf("no crash on the %d sessions live at %v leads to a recomposition", len(live), at)
	}

	r := crashOn(node)
	reg := discovery.NewRegistry(p.Catalog, p.Mesh.NumNodes(), nil)
	reg.SetOutages(r.outages)
	hosted := p.Catalog.OnNode(node)
	offered := func() int {
		n := 0
		for _, id := range hosted {
			for _, cand := range reg.Lookup(p.Catalog.Component(id).Function) {
				if cand == id {
					n++
				}
			}
		}
		return n
	}
	// Registered before the run's own events, this fires just before the
	// crash at the same instant; the event it schedules fires just after.
	r.clock.AfterFunc(at, func() {
		if r.active[victim] == nil || r.disrupted != 0 {
			t.Errorf("session %d not live, or %d sessions disrupted, just before the crash", victim, r.disrupted)
		}
		r.clock.AfterFunc(0, func() {
			if r.active[victim] != nil || r.disrupted == 0 {
				t.Errorf("session %d not disrupted at the crash", victim)
			}
		})
	})
	onNode := 0
	for step := at; step < end; step += time.Second {
		r.clock.AfterFunc(step+time.Nanosecond, func() {
			if got := offered(); got != 0 {
				t.Errorf("at %v discovery offers %d components of the down node", step, got)
			}
			for _, sess := range r.active {
				if slices.Contains(sess.nodes, node) {
					onNode++
				}
			}
		})
	}
	r.clock.AfterFunc(end, func() {
		if got := offered(); got != len(hosted) {
			t.Errorf("after repair discovery offers %d of the node's %d components", got, len(hosted))
		}
	})
	res, err := r.execute()
	if err != nil {
		t.Fatal(err)
	}
	if onNode != 0 {
		t.Errorf("sessions were placed on the node inside its crash window (%d sightings)", onNode)
	}
	if res.Failures != 1 || res.Disrupted == 0 || res.Recomposed == 0 {
		t.Errorf("run reports %d failures, %d disrupted, %d recomposed; want 1 and some of each",
			res.Failures, res.Disrupted, res.Recomposed)
	}
}

// TestNoCommitOnADownNode holds the crash window closed on
// examples/failover's setup (1600 IP nodes, 60 requests/min for 40
// minutes, 5-minute repairs) over seeds 1–10, at 1 and 5 crashes per
// minute, with and without recomposition. After every event of the run,
// no node the run's injector reports down holds committed resources: no
// commit lands on a down node, and no live session sits on one. A
// confirmation landing inside a crash window once committed onto the
// crashed node, whose crash had already fired.
func TestNoCommitOnADownNode(t *testing.T) {
	if testing.Short() {
		t.Skip("forty 40-minute runs on the failover platform")
	}
	scfg := DefaultSystemConfig()
	scfg.IPNodes = 1600
	p, err := BuildPlatform(scfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, perMinute := range []float64{1, 5} {
		for _, recompose := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v per minute, recompose %v", perMinute, recompose), func(t *testing.T) {
				t.Parallel()
				for seed := int64(1); seed <= 10; seed++ {
					rc := DefaultRunConfig(60)
					rc.Seed, rc.Duration = seed, 40*time.Minute
					rc.FailuresPerMinute, rc.RepairTime, rc.RecomposeOnFailure = perMinute, 5*time.Minute, recompose
					if at, node := downNodeCommit(t, p, rc.withDefaults()); node >= 0 {
						t.Fatalf("seed %d: at %v down node %d holds committed resources", seed, at, node)
					}
				}
			})
		}
	}
}

// downNodeCommit runs cfg on p with the crash schedule Run draws for it,
// one event at a time, and returns the first instant after an event at
// which a node the injector reports down holds committed resources, and
// that node; -1 when none ever does.
func downNodeCommit(t *testing.T, p *Platform, cfg RunConfig) (time.Duration, int) {
	t.Helper()
	crashes := faults.PoissonCrashes(cfg.Seed*1_000_003+5, p.Mesh.NumNodes(),
		cfg.FailuresPerMinute, cfg.Duration, cfg.RepairTime)
	r, err := newRun(p, cfg, crashes)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.schedule(); err != nil {
		t.Fatal(err)
	}
	if len(crashes) == 0 {
		t.Fatalf("seed %d: no crash scheduled", cfg.Seed)
	}
	// Every component demands at least 6 CPU, so a deficit of 1e-6 is a
	// session; below it, rounding left by releases. The schedule is in
	// crash order and every outage lasts RepairTime, so the outages in
	// force are a window of it.
	first := 0
	for end := r.clock.Now().Add(cfg.Duration); r.clock.Now().Before(end); {
		if _, ok := r.clock.AdvanceToNext(); !ok {
			break
		}
		now := r.now()
		for first < len(crashes) && crashes[first].At+crashes[first].Downtime <= now {
			first++
		}
		for _, cr := range crashes[first:] {
			if cr.At > now {
				break
			}
			n := cr.Node
			if r.outages.Down(n) && r.ledger.NodeCapacity(n).CPU-r.ledger.NodeCommittedAvailable(n).CPU > 1e-6 {
				return now, n
			}
		}
	}
	if r.runErr != nil {
		t.Fatal(r.runErr)
	}
	if r.phiCount == 0 {
		t.Fatalf("seed %d committed no session", cfg.Seed)
	}
	return 0, -1
}
