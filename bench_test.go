// Benchmarks regenerating every table and figure of the paper's
// evaluation (§4), plus ablations of ACP's design choices and
// micro-benchmarks of the hot substrate paths.
//
// Figure benchmarks run the full experiment pipeline at a reduced scale
// (10 simulated minutes per run on an 800-node IP graph) and report the
// headline quantities as custom metrics, so `go test -bench=.` doubles
// as a quick smoke reproduction. Regenerate the figures at paper scale
// with `go run ./cmd/acpfig -fig all`.
package acp_test

import (
	"io"
	"testing"
	"time"

	acp "repro"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/harness/clock"
	"repro/internal/topology"
	"repro/internal/tuning"

	"math/rand"
)

// benchOptions shrinks figure reproductions to benchmark scale.
func benchOptions() acp.FigureOptions {
	return acp.FigureOptions{Seed: 1, DurationScale: 0.01, IPNodes: 800}
}

func benchFigure(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := acp.ReproduceFigure(name, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatal("empty figure result")
		}
	}
}

// BenchmarkFig5a regenerates Figure 5(a): success rate vs probing ratio
// under request rates 50 and 100.
func BenchmarkFig5a(b *testing.B) { benchFigure(b, "5a") }

// BenchmarkFig5b regenerates Figure 5(b): success rate vs probing ratio
// under low/high/very-high QoS requirements.
func BenchmarkFig5b(b *testing.B) { benchFigure(b, "5b") }

// BenchmarkFig6a regenerates Figure 6(a): success rate vs request rate
// for all six algorithms.
func BenchmarkFig6a(b *testing.B) { benchFigure(b, "6a") }

// BenchmarkFig6b regenerates Figure 6(b): control overhead vs request
// rate for Optimal, ACP, and RP.
func BenchmarkFig6b(b *testing.B) { benchFigure(b, "6b") }

// BenchmarkFig7a regenerates Figure 7(a): success rate vs system size.
func BenchmarkFig7a(b *testing.B) { benchFigure(b, "7a") }

// BenchmarkFig7b regenerates Figure 7(b): overhead vs system size.
func BenchmarkFig7b(b *testing.B) { benchFigure(b, "7b") }

// BenchmarkFig8a regenerates Figure 8(a): success over time under a
// dynamic workload with a fixed probing ratio.
func BenchmarkFig8a(b *testing.B) { benchFigure(b, "8a") }

// BenchmarkFig8b regenerates Figure 8(b): the probing-ratio tuner
// holding a 90% target under the dynamic workload.
func BenchmarkFig8b(b *testing.B) { benchFigure(b, "8b") }

// benchPlatform builds the shared benchmark platform.
func benchPlatform(b *testing.B, componentsPerNode int) *experiment.Platform {
	b.Helper()
	cfg := experiment.DefaultSystemConfig()
	cfg.IPNodes = 800
	cfg.ComponentsPerNode = componentsPerNode
	p, err := experiment.BuildPlatform(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func benchRun(b *testing.B, p *experiment.Platform, mutate func(*experiment.RunConfig)) {
	b.Helper()
	var last *experiment.Result
	for i := 0; i < b.N; i++ {
		rc := experiment.DefaultRunConfig(60)
		rc.Duration = 10 * time.Minute
		mutate(&rc)
		res, err := experiment.Run(p, rc)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(100*last.SuccessRate, "success%")
		b.ReportMetric(last.OverheadPerMinute, "msgs/min")
	}
}

// BenchmarkAblationStaleness compares the coarse threshold-triggered
// global state against the always-fresh (centralized) and frozen
// (never-updated) extremes (§3.2).
func BenchmarkAblationStaleness(b *testing.B) {
	p := benchPlatform(b, 1)
	policies := []struct {
		name   string
		policy experiment.StatePolicy
	}{
		{name: "coarse", policy: experiment.StateCoarse},
		{name: "fresh", policy: experiment.StateFresh},
		{name: "frozen", policy: experiment.StateFrozen},
	}
	for _, tc := range policies {
		b.Run(tc.name, func(b *testing.B) {
			benchRun(b, p, func(rc *experiment.RunConfig) { rc.State = tc.policy })
		})
	}
}

// BenchmarkAblationSelection compares the per-hop candidate ranking
// policies of §3.5: the paper's risk-then-congestion rule against each
// criterion alone and against random selection.
func BenchmarkAblationSelection(b *testing.B) {
	p := benchPlatform(b, 1)
	policies := []struct {
		name string
		sel  core.SelectionPolicy
	}{
		{name: "risk-then-congestion", sel: core.SelectRiskThenCongestion},
		{name: "risk-only", sel: core.SelectRiskOnly},
		{name: "congestion-only", sel: core.SelectCongestionOnly},
		{name: "random", sel: core.SelectRandom},
	}
	for _, tc := range policies {
		b.Run(tc.name, func(b *testing.B) {
			benchRun(b, p, func(rc *experiment.RunConfig) { rc.Selection = tc.sel })
		})
	}
}

// BenchmarkAblationTuner compares a fixed mid probing ratio against the
// self-tuning ratio under the Figure 8 dynamic workload.
func BenchmarkAblationTuner(b *testing.B) {
	p := benchPlatform(b, 2)
	b.Run("fixed-alpha", func(b *testing.B) {
		benchRun(b, p, func(rc *experiment.RunConfig) {
			rc.ProbingRatio = 0.3
			rc.MaxProbesPerRequest = 2000
		})
	})
	b.Run("tuned", func(b *testing.B) {
		benchRun(b, p, func(rc *experiment.RunConfig) {
			rc.ProbingRatio = 0.1
			rc.MaxProbesPerRequest = 2000
			tcfg := tuning.DefaultConfig()
			tcfg.ErrorThreshold = 0.05
			rc.Tuning = &tcfg
		})
	})
}

// BenchmarkComposeACP measures one ACP composition (probe + commit +
// release) on a warm 400-node system.
func BenchmarkComposeACP(b *testing.B) { benchCompose(b, core.AlgACP) }

// BenchmarkComposeOptimal measures one exhaustive Optimal composition.
func BenchmarkComposeOptimal(b *testing.B) { benchCompose(b, core.AlgOptimal) }

// BenchmarkComposeRandom measures one Random-heuristic composition.
func BenchmarkComposeRandom(b *testing.B) { benchCompose(b, core.AlgRandom) }

func benchCompose(b *testing.B, alg core.Algorithm) {
	b.Helper()
	cfg := acp.DefaultClusterConfig()
	cfg.IPNodes = 800
	cfg.OverlayNodes = 400
	cfg.NumFunctions = 80
	cfg.ComponentsPerNode = 1
	cfg.Algorithm = alg
	cfg.ProbingRatio = 0.3
	cluster, err := acp.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Shutdown()
	graph := acp.NewPathGraph([]acp.FunctionID{0, 1, 2, 3})
	qosReq := acp.QoS{Delay: 100000, LossCost: acp.LossCost(0.9)}
	resReq := []acp.Resources{{CPU: 1, Memory: 10}, {CPU: 1, Memory: 10}, {CPU: 1, Memory: 10}, {CPU: 1, Memory: 10}}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := cluster.Find(graph, qosReq, resReq, 10)
		if err != nil {
			b.Fatal(err)
		}
		if err := cluster.Close(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbeWalkTracing guards the observability overhead: the same
// ACP compose/release loop with tracing disabled (nil tracer — the
// default) and with spans streaming to a discarded JSONL sink. The
// disabled variant is the regression guard; it must not drift from the
// pre-tracing baseline.
func BenchmarkProbeWalkTracing(b *testing.B) {
	bench := func(b *testing.B, tracer *acp.Tracer) {
		cfg := acp.DefaultClusterConfig()
		cfg.IPNodes = 800
		cfg.OverlayNodes = 400
		cfg.NumFunctions = 80
		cfg.ComponentsPerNode = 1
		cfg.ProbingRatio = 0.3
		cfg.Tracer = tracer
		cluster, err := acp.NewCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer cluster.Shutdown()
		graph := acp.NewPathGraph([]acp.FunctionID{0, 1, 2, 3})
		qosReq := acp.QoS{Delay: 100000, LossCost: acp.LossCost(0.9)}
		resReq := []acp.Resources{{CPU: 1, Memory: 10}, {CPU: 1, Memory: 10}, {CPU: 1, Memory: 10}, {CPU: 1, Memory: 10}}

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id, err := cluster.Find(graph, qosReq, resReq, 10)
			if err != nil {
				b.Fatal(err)
			}
			if err := cluster.Close(id); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { bench(b, nil) })
	b.Run("enabled", func(b *testing.B) {
		tracer, flush := acp.NewJSONLTracer(io.Discard)
		defer flush()
		bench(b, tracer)
	})
}

// TestDisabledTracerZeroAllocPerHop pins the contract the nil-tracer
// fast path relies on: every per-hop emission on a disabled tracer is a
// pointer check with zero allocations.
func TestDisabledTracerZeroAllocPerHop(t *testing.T) {
	var tr *acp.Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.RequestReceived(1, 0)
		pid := tr.NextProbeID()
		tr.ProbeSpawned(1, pid, 0, 2, 1.0)
		tr.CandidatePruned(1, pid, 0, 0, 2, "qos")
		tr.HoldAcquired(1, pid, 0, 2)
		tr.ProbeForwarded(1, pid, 0, 2, 3)
		tr.ProbeReturned(1, pid, 2, 1.0)
		tr.HoldReleased(1, 2)
		tr.Decided(1, 0, "")
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates %.1f bytes-objects per hop, want 0", allocs)
	}
}

// BenchmarkPipelineThroughput measures data-plane throughput through a
// composed three-stage pipeline.
func BenchmarkPipelineThroughput(b *testing.B) {
	cluster, err := acp.NewCluster(acp.DefaultClusterConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Shutdown()
	graph := acp.NewPathGraph([]acp.FunctionID{0, 1, 2})
	id, err := cluster.Find(graph,
		acp.QoS{Delay: 100000, LossCost: acp.LossCost(0.9)},
		[]acp.Resources{{CPU: 1, Memory: 10}, {CPU: 1, Memory: 10}, {CPU: 1, Memory: 10}}, 10)
	if err != nil {
		b.Fatal(err)
	}
	in, out, err := cluster.Process(id)
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range out {
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in <- acp.DataUnit{Seq: int64(i)}
	}
	b.StopTimer()
	close(in)
	<-done
}

// BenchmarkTopologyGenerate measures power-law graph generation at the
// paper's 3200-node scale.
func BenchmarkTopologyGenerate(b *testing.B) {
	cfg := topology.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := topology.Generate(cfg, rand.New(rand.NewSource(1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShortestPaths measures one full Dijkstra pass over the
// 3200-node IP graph into one reused tree, as overlay construction runs
// it (there it stops at its last target).
func BenchmarkShortestPaths(b *testing.B) {
	g, err := topology.Generate(topology.DefaultConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	var tree topology.PathTree
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Route(&tree, i%g.NumNodes(), nil)
	}
}

// BenchmarkEventEngine measures discrete-event scheduling throughput on
// the virtual clock that drives experiment.Run.
func BenchmarkEventEngine(b *testing.B) {
	v := clock.NewVirtual()
	count := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.AfterFunc(time.Duration(i%1000)*time.Millisecond, func() { count++ })
		if i%1024 == 1023 {
			v.Advance(time.Second)
		}
	}
	v.Advance(time.Second)
	if count != b.N {
		b.Fatalf("ran %d events, want %d", count, b.N)
	}
}

// BenchmarkPlatformBuild measures constructing the full 400-node
// simulation platform (topology + overlay + placement + templates).
func BenchmarkPlatformBuild(b *testing.B) {
	cfg := experiment.DefaultSystemConfig()
	cfg.IPNodes = 800
	for i := 0; i < b.N; i++ {
		if _, err := experiment.BuildPlatform(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionFailover measures composition under node crashes,
// with and without automatic recomposition of disrupted sessions.
func BenchmarkExtensionFailover(b *testing.B) {
	p := benchPlatform(b, 1)
	run := func(b *testing.B, recompose bool) {
		var last *experiment.Result
		for i := 0; i < b.N; i++ {
			rc := experiment.DefaultRunConfig(60)
			rc.Duration = 10 * time.Minute
			rc.FailuresPerMinute = 1
			rc.RepairTime = 3 * time.Minute
			rc.RecomposeOnFailure = recompose
			res, err := experiment.Run(p, rc)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		if last != nil {
			b.ReportMetric(100*last.SuccessRate, "success%")
			b.ReportMetric(float64(last.Disrupted), "disrupted")
			b.ReportMetric(float64(last.Recomposed), "recovered")
		}
	}
	b.Run("no-recovery", func(b *testing.B) { run(b, false) })
	b.Run("recompose", func(b *testing.B) { run(b, true) })
}
