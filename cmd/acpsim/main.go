// Command acpsim runs a single configurable composition simulation and
// reports success rate, overhead, and per-window series; -fig prints a
// paper figure's tables, -report renders the paper report and -topo
// prints the network substrate's statistics.
//
// Usage:
//
//	acpsim -alg ACP -rate 80 -alpha 0.3 -minutes 100
//	acpsim -alg Optimal -nodes 600 -rate 80
//	acpsim -alg ACP -rate 60 -tune -target 0.9
//	acpsim -record run.trace && acpsim -replay run.trace
//	acpsim -trace-out probes.jsonl -metrics-out metrics.json
//	acpsim -dist -seed 7 -requests 32
//	acpsim -adapt -seed 4 -adapt-predictive
//	acpsim -multi-app -family diurnal -tenants 4 && acpsim -multi-app -family all
//	acpsim -fig 6a -scale 0.2 && acpsim -fig ablations -seeds 3 -csv
//	acpsim -report > EXPERIMENTS.md
//	acpsim -topo -ipnodes 800 -nodes 100 -seed 7 -hist
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/substrate"
	"repro/internal/trace"
	"repro/internal/tuning"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "acpsim:", err)
		os.Exit(1)
	}
}

func parseAlgorithm(name string) (core.Algorithm, error) {
	algorithms := []core.Algorithm{
		core.AlgACP, core.AlgOptimal, core.AlgSP, core.AlgRP, core.AlgRandom, core.AlgStatic,
	}
	for _, a := range algorithms {
		if strings.EqualFold(a.String(), name) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q (have ACP, Optimal, SP, RP, Random, Static)", name)
}

func run(args []string) error {
	fs := flag.NewFlagSet("acpsim", flag.ContinueOnError)
	var (
		algName  = fs.String("alg", "ACP", "composition algorithm")
		rate     = fs.Float64("rate", 80, "request rate (requests/minute)")
		alpha    = fs.Float64("alpha", 0.3, "probing ratio")
		minutes  = fs.Float64("minutes", 100, "simulated duration in minutes")
		nodes    = fs.Int("nodes", 400, "overlay (stream processing) node count")
		ipNodes  = fs.Int("ipnodes", 3200, "IP-layer topology size")
		perNode  = fs.Int("pernode", 1, "components deployed per node")
		seed     = fs.Int64("seed", 1, "random seed")
		tune     = fs.Bool("tune", false, "enable the probing-ratio tuner")
		target   = fs.Float64("target", 0.9, "tuner success-rate target")
		qosLevel = fs.String("qos", "high", "QoS strictness: low, high, veryhigh")
		series   = fs.Bool("series", false, "print the per-window success series")
		record   = fs.String("record", "", "record the workload trace to this file")
		replay   = fs.String("replay", "", "replay a recorded workload trace instead of generating one")
		failures = fs.Float64("failures", 0, "node failures per minute (0 = none)")
		repair   = fs.Float64("repair", 10, "minutes a failed node stays down")
		recomp   = fs.Bool("recompose", false, "re-compose sessions disrupted by failures")
		traceOut = fs.String("trace-out", "", "write probe-lifecycle span events (JSONL) to this file")
		metrOut  = fs.String("metrics-out", "", "write the instrument snapshot (the /metrics.json document) to this file")
		serveObs = fs.String("serve-obs", "", "serve the observability plane (/metrics, /trace, /healthz, pprof) at this address, e.g. :9090")
		srvHold  = fs.Duration("serve-hold", 0, "keep -serve-obs up this long after the run (0 = close immediately)")

		distMode = fs.Bool("dist", false, "run a seeded, step-audited scenario on the distributed engine under the seed's fault mix")
		requests = fs.Int("requests", 16, "dist: compose requests in the scenario")

		adaptMode = fs.Bool("adapt", false, "run a seeded, tick-audited drift-adaptation scenario on the live runtime")
		adaptPred = fs.Bool("adapt-predictive", false, "adapt: migrate on Holt forecast before the bound is crossed")
		sessions  = fs.Int("sessions", 3, "adapt: concurrent sessions the workload tops up to each round; the default replays the adaptation sweep's seed N, with -adapt-predictive when N % 4 == 0")

		multiApp = fs.Bool("multi-app", false, "run an oracle-audited concurrent multi-application episode on the live runtime")
		famName  = fs.String("family", "flash-crowd", "multi-app: workload scenario family ("+strings.Join(familyNames(), ", ")+", or all)")
		tenants  = fs.Int("tenants", 3, "multi-app: competing application count")
		ticks    = fs.Int("ticks", 18, "multi-app: episode length in admission rounds")
		load     = fs.Float64("load", 1.5, "multi-app: expected arrivals per tenant per tick")

		fig    = fs.String("fig", "", "print one paper figure's tables ("+strings.Join(experiment.FigureNames(), " ")+", ablations or ablation-...)")
		report = fs.Bool("report", false, "render the paper report, EXPERIMENTS.md, at -scale, -seed and -ipnodes")
		scale  = fs.Float64("scale", 1.0, "fig, report: simulated-duration scale factor (1.0 = paper scale)")
		seeds  = fs.Int("seeds", 1, "fig: average the figure over this many consecutive seeds")
		asCSV  = fs.Bool("csv", false, "fig: emit CSV instead of aligned tables")

		topo      = fs.Bool("topo", false, "print the network substrate's statistics at -ipnodes, -nodes and -seed")
		neighbors = fs.Int("neighbors", 6, "topo: overlay neighbors per node")
		hist      = fs.Bool("hist", false, "topo: print the full degree histogram")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *distMode {
		return runDist(*seed, *requests)
	}
	if *adaptMode {
		return runAdapt(*seed, *sessions, *adaptPred)
	}
	if *multiApp {
		return runMultiApp(*seed, *famName, *tenants, *ticks, *load)
	}
	if *topo {
		return runTopo(*ipNodes, *nodes, *neighbors, *seed, *hist)
	}
	figOpts := experiment.Options{Seed: *seed, DurationScale: *scale, IPNodes: *ipNodes}
	if *report {
		return experiment.Report(os.Stdout, figOpts)
	}
	if *fig != "" {
		return runFigure(*fig, figOpts, *seeds, *asCSV)
	}

	alg, err := parseAlgorithm(*algName)
	if err != nil {
		return err
	}
	var level workload.QoSLevel
	switch strings.ToLower(*qosLevel) {
	case "low":
		level = workload.QoSLow
	case "high":
		level = workload.QoSHigh
	case "veryhigh":
		level = workload.QoSVeryHigh
	default:
		return fmt.Errorf("unknown QoS level %q", *qosLevel)
	}

	scfg := experiment.DefaultSystemConfig()
	scfg.Seed = *seed
	scfg.IPNodes = *ipNodes
	scfg.OverlayNodes = *nodes
	scfg.ComponentsPerNode = *perNode
	platform, err := experiment.BuildPlatform(scfg)
	if err != nil {
		return err
	}

	rc := experiment.DefaultRunConfig(*rate)
	rc.Seed = *seed
	rc.Algorithm = alg
	rc.ProbingRatio = *alpha
	rc.Duration = time.Duration(*minutes * float64(time.Minute))
	rc.QoSLevel = level
	if *tune {
		tcfg := tuning.DefaultConfig()
		tcfg.Target = *target
		rc.Tuning = &tcfg
	}
	if *failures > 0 {
		rc.FailuresPerMinute = *failures
		rc.RepairTime = time.Duration(*repair * float64(time.Minute))
		rc.RecomposeOnFailure = *recomp
	}
	var recordFile *os.File
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			return fmt.Errorf("-record: %w", err)
		}
		recordFile = f
		defer f.Close()
		rc.TraceWriter = trace.NewWriter(f)
	}
	// Output files open before the run so an unwritable path fails fast
	// instead of discarding minutes of simulation.
	var traceFile *os.File
	var traceSink *obs.JSONLSink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("-trace-out: %w", err)
		}
		traceFile = f
		defer f.Close()
		traceSink = obs.NewJSONLSink(f)
		rc.Tracer = obs.New(traceSink)
	}
	var registry *obs.Registry
	var metricsFile *os.File
	if *metrOut != "" {
		f, err := os.Create(*metrOut)
		if err != nil {
			return fmt.Errorf("-metrics-out: %w", err)
		}
		metricsFile = f
		defer f.Close()
		registry = obs.NewRegistry()
		rc.Registry = registry
	}
	var obsServer *obs.Server
	if *serveObs != "" {
		// The HTTP plane needs a registry and a tracer regardless of the
		// file outputs; a sink-less live tracer serves /trace subscribers
		// without writing anywhere.
		if registry == nil {
			registry = obs.NewRegistry()
			rc.Registry = registry
		}
		if rc.Tracer == nil {
			rc.Tracer = obs.NewLive()
		}
		srv, err := obs.Serve(*serveObs, obs.ServeConfig{Registry: registry, Tracer: rc.Tracer})
		if err != nil {
			return fmt.Errorf("-serve-obs: %w", err)
		}
		obsServer = srv
		defer srv.Close()
		fmt.Printf("observability    %s/metrics (hold %v after run)\n", srv.URL(), *srvHold)
	}
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			return err
		}
		records, err := trace.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		rc.Replay = records
		fmt.Printf("replaying %d recorded requests from %s\n", len(records), *replay)
	}

	start := time.Now()
	res, err := experiment.Run(platform, rc)
	if err != nil {
		return err
	}

	fmt.Printf("algorithm        %s (alpha=%.2f%s)\n", alg, *alpha, tuneSuffix(*tune, *target))
	fmt.Printf("system           N=%d overlay nodes on %d IP nodes, %d components\n",
		*nodes, *ipNodes, platform.Catalog.NumComponents())
	fmt.Printf("workload         %.0f reqs/min for %.0f min (%s)\n", *rate, *minutes, level)
	fmt.Printf("requests         %d\n", res.Requests)
	fmt.Printf("success rate     %.2f%%\n", 100*res.SuccessRate)
	fmt.Printf("overhead         %.0f messages/min (%s)\n", res.OverheadPerMinute, res.Messages)
	pb := res.PhaseBreakdown
	fmt.Printf("phase breakdown  probing %d, state updates %d, commit %d, discovery %d\n",
		pb.Probing, pb.StateUpdates, pb.Commit, pb.Discovery)
	fmt.Printf("mean probe RTT   %v\n", res.MeanProbeLatency.Round(time.Millisecond))
	fmt.Printf("mean phi         %.3f\n", res.MeanPhi)
	if *tune {
		fmt.Printf("tuner reprofiles %d\n", res.Reprofiles)
	}
	if *failures > 0 {
		fmt.Printf("failures         %d crashes, %d sessions disrupted, %d recomposed\n",
			res.Failures, res.Disrupted, res.Recomposed)
	}
	fmt.Printf("wall clock       %v\n", time.Since(start).Round(time.Millisecond))
	if recordFile != nil {
		fmt.Printf("trace            recorded %d requests to %s\n", res.Requests, recordFile.Name())
	}
	if traceSink != nil {
		if err := traceSink.Flush(); err != nil {
			return fmt.Errorf("-trace-out: %w", err)
		}
		if err := traceFile.Sync(); err != nil {
			return fmt.Errorf("-trace-out: %w", err)
		}
		fmt.Printf("probe trace      %d span events to %s\n", traceSink.Count(), traceFile.Name())
	}
	if metricsFile != nil {
		enc := json.NewEncoder(metricsFile)
		enc.SetIndent("", "  ")
		if err := enc.Encode(registry.Snapshot()); err != nil {
			return fmt.Errorf("-metrics-out: %w", err)
		}
		fmt.Printf("instruments      snapshot to %s\n", metricsFile.Name())
	}
	if obsServer != nil && *srvHold > 0 {
		fmt.Printf("observability    holding %s for %v (Ctrl-C to stop early)\n", obsServer.URL(), *srvHold)
		time.Sleep(*srvHold)
	}

	if *series {
		fmt.Println("\nwindow series (minute, success %, alpha):")
		ratio := make(map[time.Duration]float64, len(res.RatioSeries))
		for _, p := range res.RatioSeries {
			ratio[p.At] = p.Value
		}
		for _, p := range res.SuccessSeries {
			fmt.Printf("  %6.1f  %6.2f  %.2f\n", p.At.Minutes(), 100*p.Value, ratio[p.At])
		}
	}
	return nil
}

// runFigure prints one runner's tables, or every ablation's for
// "ablations", averaged over seeds consecutive seeds.
func runFigure(fig string, opts experiment.Options, seeds int, asCSV bool) error {
	names := []string{fig}
	if fig == "ablations" {
		names = names[:0]
		for name := range experiment.Ablations() {
			names = append(names, "ablation-"+name)
		}
		sort.Strings(names)
	}
	for _, name := range names {
		fn, ok := experiment.Runner(name)
		if !ok {
			return fmt.Errorf("unknown figure %q (have: %s, ablations, ablation-...)",
				name, strings.Join(experiment.FigureNames(), " "))
		}
		tables, err := experiment.ReproduceAveraged(fn, opts, seeds)
		if err != nil {
			return fmt.Errorf("figure %s: %w", name, err)
		}
		for _, t := range tables {
			render := t.Fprint
			if asCSV {
				render = t.FprintCSV
			}
			if err := render(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
	}
	return nil
}

// runTopo prints the network substrate's statistics: the IP graph's
// power-law degrees, the overlay mesh's shape and its virtual links. Like
// runtime.NewCluster and dist.New (acpserve's network, for one), it draws
// through substrate.Network from one stream seeded with seed;
// experiment.BuildPlatform seeds each stage apart, so figures differ.
func runTopo(ipNodes, nodes, neighbors int, seed int64, hist bool) error {
	rng := rand.New(rand.NewSource(seed))
	graph, mesh, err := substrate.Network(substrate.Config{
		IPNodes: ipNodes, OverlayNodes: nodes, NeighborsPerNode: neighbors,
	}, rng, rng)
	if err != nil {
		return err
	}
	st := graph.Stats()
	fmt.Printf("IP-layer graph   %d nodes, %d links\n", graph.NumNodes(), graph.NumLinks())
	fmt.Printf("degrees          min=%d max=%d mean=%.2f\n", st.Min, st.Max, st.Mean)
	fmt.Printf("power-law slope  %.2f (log-log least squares; clearly negative = heavy tail)\n", st.PowerLawSlope)
	fmt.Printf("connected        %v\n", graph.Connected())
	if hist {
		fmt.Println("degree histogram:")
		for d, c := range st.Counts {
			if c > 0 {
				fmt.Printf("  %4d: %d\n", d, c)
			}
		}
	}

	fmt.Printf("\noverlay mesh     %d nodes, %d links\n", mesh.NumNodes(), mesh.NumLinks())
	var delays, caps []float64
	var sumDelay, sumCap float64
	for id := range mesh.NumLinks() {
		lk := mesh.Link(id)
		delays, sumDelay = append(delays, lk.QoS.Delay), sumDelay+lk.QoS.Delay
		caps, sumCap = append(caps, lk.Capacity), sumCap+lk.Capacity
	}
	links := float64(len(delays))
	fmt.Printf("link delay (ms)  min=%.1f mean=%.1f max=%.1f\n", slices.Min(delays), sumDelay/links, slices.Max(delays))
	fmt.Printf("link cap (kbps)  min=%.0f mean=%.0f max=%.0f\n", slices.Min(caps), sumCap/links, slices.Max(caps))

	// Sample virtual links between random node pairs.
	const samples = 200
	var sumVDelay float64
	var sumHops int
	for range samples {
		a, b := rng.Intn(mesh.NumNodes()), rng.Intn(mesh.NumNodes())
		r, ok := mesh.RouteBetween(a, b)
		if !ok {
			return fmt.Errorf("no route between overlay nodes %d and %d", a, b)
		}
		sumVDelay, sumHops = sumVDelay+r.QoS.Delay, sumHops+len(r.Links)
	}
	fmt.Printf("virtual links    mean delay=%.1fms mean hops=%.1f (over %d samples)\n",
		sumVDelay/samples, float64(sumHops)/samples, samples)
	return nil
}

// runDist plays one seeded scenario through the distributed engine
// under the seed's fault mix, auditing the resource invariants at every
// step. A failing run prints the flags that replay it exactly.
func runDist(seed int64, requests int) error {
	start := time.Now()
	rep, err := harness.RunScenario(harness.ScenarioConfig{Seed: seed, Requests: requests})
	if err != nil {
		return fmt.Errorf("%w (replay: acpsim -dist -seed %d -requests %d)", err, seed, requests)
	}
	fmt.Printf("engine           distributed, stepped on a virtual clock under seed %d's fault mix\n", seed)
	fmt.Printf("requests         %d (%d admitted)\n", rep.Requests, rep.Admitted)
	fmt.Printf("steps            %d messages dispatched\n", rep.Steps)
	fmt.Printf("wall clock       %v (audited at every step)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runAdapt plays one seeded drift and churn scenario against the live
// runtime with the re-composition controller on, auditing the ledger and
// every migration at each tick. A failing run prints the flags that
// replay it exactly.
func runAdapt(seed int64, sessions int, predictive bool) error {
	mode, replay := "recompose on drift", ""
	if predictive {
		mode, replay = "recompose + Holt forecast", " -adapt-predictive"
	}
	start := time.Now()
	rep, err := harness.RunAdaptScenario(harness.AdaptScenarioConfig{
		Seed:       seed,
		Sessions:   sessions,
		Predictive: predictive,
	})
	if err != nil {
		return fmt.Errorf("%w (replay: acpsim -adapt -seed %d -sessions %d%s)", err, seed, sessions, replay)
	}
	fmt.Printf("engine           live runtime on virtual clock, seed %d, %d sessions\n", seed, sessions)
	fmt.Printf("mode             %s\n", mode)
	fmt.Printf("admitted         %d\n", rep.Admitted)
	fmt.Printf("drift episodes   %d (%d recovered, %d closed mid-violation)\n", rep.Exceeded, rep.Recovered, rep.Forgotten)
	fmt.Printf("migrations       %d (%d episodes abandoned)\n", rep.Migrations, rep.Abandoned)
	fmt.Printf("wall clock       %v (audited at every tick)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// familyNames lists the multi-app scenario family spellings.
func familyNames() []string {
	fams := workload.Families()
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = f.String()
	}
	return names
}

// runMultiApp plays one (or, for "all", every) scenario family through
// the oracle-audited concurrent multi-application harness and reports
// the admission partition and fairness indices. A failing run prints
// the seed so `acpsim -multi-app -seed <seed>` replays it exactly.
func runMultiApp(seed int64, famName string, tenants, ticks int, load float64) error {
	fams := workload.Families()
	if famName != "all" {
		f, err := workload.ParseFamily(famName)
		if err != nil {
			return err
		}
		fams = []workload.Family{f}
	}
	start := time.Now()
	for _, f := range fams {
		rep, err := harness.RunMultiAppScenario(harness.MultiAppConfig{
			Seed:    seed,
			Family:  f,
			Tenants: tenants,
			Ticks:   ticks,
			Load:    load,
			Oracle:  true,
		})
		if err != nil {
			return fmt.Errorf("seed %d: %w (replay: acpsim -multi-app -family %s -seed %d)", seed, err, f, seed)
		}
		fmt.Printf("family           %s (seed %d, %d tenants, %d ticks, load %.2f)\n",
			rep.Family, rep.Seed, rep.Tenants, ticks, load)
		fmt.Printf("arrivals         %d (%d admitted, %d quota-rejected, %d refused)\n",
			rep.Arrivals, rep.Admitted, rep.QuotaRejected, rep.Refused)
		for i := range rep.TenantArrivals {
			fmt.Printf("  tenant t%d      %d/%d admitted\n", i, rep.TenantAdmitted[i], rep.TenantArrivals[i])
		}
		fmt.Printf("fairness         %.3f admission Jain, %.3f min live weighted Jain\n",
			rep.Fairness, rep.MinLiveFairness)
	}
	fmt.Printf("wall clock       %v (oracle-audited)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func tuneSuffix(tune bool, target float64) string {
	if !tune {
		return ""
	}
	return fmt.Sprintf(", tuned to %.0f%% target", 100*target)
}
