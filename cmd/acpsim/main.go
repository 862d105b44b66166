// Command acpsim runs a single configurable composition simulation and
// reports success rate, overhead, and per-window series.
//
// Usage:
//
//	acpsim -alg ACP -rate 80 -alpha 0.3 -minutes 100
//	acpsim -alg Optimal -nodes 600 -rate 80
//	acpsim -alg ACP -rate 60 -tune -target 0.9
//	acpsim -record run.trace && acpsim -replay run.trace
//	acpsim -trace-out probes.jsonl -metrics-out metrics.json
//	acpsim -dist -fault-drop 0.2 -fault-crashes 3 -requests 64
//	acpsim -adapt -surges 4 && acpsim -adapt -adapt-predictive
//	acpsim -multi-app -family diurnal -tenants 4 && acpsim -fairness
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/placement"
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
		pi       = fs.Bool("pi", false, "use the PI-controller tuner instead of the profiling tuner")
		failures = fs.Float64("failures", 0, "node failures per minute (0 = none)")
		repair   = fs.Float64("repair", 10, "minutes a failed node stays down")
		recomp   = fs.Bool("recompose", false, "re-compose sessions disrupted by failures")
		migrate  = fs.Bool("migrate", false, "enable dynamic component placement")
		traceOut = fs.String("trace-out", "", "write probe-lifecycle span events (JSONL) to this file")
		metrOut  = fs.String("metrics-out", "", "write the instrument snapshot (the /metrics.json document) to this file")
		serveObs = fs.String("serve-obs", "", "serve the observability plane (/metrics, /trace, /healthz, pprof) at this address, e.g. :9090")
		srvHold  = fs.Duration("serve-hold", 0, "keep -serve-obs up this long after the run (0 = close immediately)")

		distMode  = fs.Bool("dist", false, "run the goroutine-per-node distributed engine instead of the simulator")
		requests  = fs.Int("requests", 48, "dist: number of requests in the batch")
		retries   = fs.Int("retries", 3, "dist: per-request compose retry budget")
		faultDrop = fs.Float64("fault-drop", 0, "dist: injected message-loss probability [0, 1]")
		faultDup  = fs.Float64("fault-dup", 0, "dist: injected message-duplication probability [0, 1]")
		faultLag  = fs.Duration("fault-delay", 0, "dist: max injected delivery delay (uniform jitter)")
		faultCr   = fs.Int("fault-crashes", 0, "dist: number of scheduled node crashes")
		faultDown = fs.Duration("fault-downtime", 200*time.Millisecond, "dist: how long each crashed node stays down")

		adaptMode = fs.Bool("adapt", false, "run the drift-adaptation scenario on the live runtime instead of the simulator")
		adaptOff  = fs.Bool("adapt-monitor-only", false, "adapt: observe drift without re-composing (the baseline)")
		adaptPred = fs.Bool("adapt-predictive", false, "adapt: migrate on Holt forecast before the bound is crossed")
		surges    = fs.Int("surges", 4, "adapt: number of congestion surges in the schedule")
		sessions  = fs.Int("sessions", 4, "adapt: concurrent session population")

		multiApp = fs.Bool("multi-app", false, "run an oracle-audited concurrent multi-application episode on the live runtime")
		famName  = fs.String("family", "flash-crowd", "multi-app: workload scenario family ("+strings.Join(familyNames(), ", ")+", or all)")
		tenants  = fs.Int("tenants", 3, "multi-app: competing application count")
		ticks    = fs.Int("ticks", 18, "multi-app: episode length in admission rounds")
		load     = fs.Float64("load", 1.5, "multi-app: expected arrivals per tenant per tick")
		fairFig  = fs.Bool("fairness", false, "print the multi-application fairness figure (success rate and Jain index vs load per family)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *distMode {
		return runDist(*seed, *nodes, *requests, *retries, *faultDrop, *faultDup, *faultLag, *faultCr, *faultDown)
	}
	if *adaptMode {
		return runAdapt(*seed, *sessions, *surges, !*adaptOff, *adaptPred)
	}
	if *fairFig {
		return runFairness(*seed)
	}
	if *multiApp {
		return runMultiApp(*seed, *famName, *tenants, *ticks, *load)
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
	switch {
	case *tune && *pi:
		picfg := tuning.DefaultPIConfig()
		picfg.Target = *target
		rc.PITuning = &picfg
	case *tune:
		tcfg := tuning.DefaultConfig()
		tcfg.Target = *target
		rc.Tuning = &tcfg
	}
	if *failures > 0 {
		rc.FailuresPerMinute = *failures
		rc.RepairTime = time.Duration(*repair * float64(time.Minute))
		rc.RecomposeOnFailure = *recomp
	}
	if *migrate {
		pcfg := placement.DefaultConfig()
		rc.Migration = &pcfg
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
	if *migrate {
		fmt.Printf("migrations       %d component moves\n", res.MigrationMoves)
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

// runDist pushes a request batch through the distributed engine with
// fault injection and reports degradation and recovery.
func runDist(seed int64, nodes, requests, retries int, drop, dup float64,
	maxDelay time.Duration, crashes int, downtime time.Duration) error {

	cfg := experiment.DistFaultConfig{
		Seed:         seed,
		OverlayNodes: nodes,
		Requests:     requests,
		Retries:      retries,
		DropProb:     drop,
		DupProb:      dup,
		MaxDelay:     maxDelay,
	}
	if crashes > 0 {
		cfg.Crashes = faults.RandomCrashes(seed, nodes, crashes, 500*time.Millisecond, downtime)
	}
	start := time.Now()
	res, err := experiment.DistFaultRun(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("engine           distributed (goroutine per node), N=%d\n", nodes)
	fmt.Printf("faults           drop=%.0f%% dup=%.0f%% delay<=%v crashes=%d (down %v)\n",
		100*drop, 100*dup, maxDelay, crashes, downtime)
	fmt.Printf("requests         %d (%d retries each)\n", res.Requests, retries)
	fmt.Printf("success rate     %.2f%%\n", 100*res.SuccessRate())
	fmt.Printf("no composition   %d\n", res.Failed)
	fmt.Printf("errors           %d\n", res.Errored)
	fmt.Printf("injected         %d dropped, %d duplicated, %d delayed, %d crashes\n",
		res.Dropped, res.Duplicated, res.Delayed, res.Crashes)
	fmt.Printf("recovery         %d retries, %d holds swept, recovered=%v\n",
		res.Retries, res.HoldsSwept, res.Recovered)
	fmt.Printf("wall clock       %v\n", time.Since(start).Round(time.Millisecond))
	if !res.Recovered {
		return fmt.Errorf("cluster did not return to full capacity")
	}
	return nil
}

// runAdapt plays the deterministic surge schedule against the live
// runtime cluster on the virtual clock and reports drift exposure.
func runAdapt(seed int64, sessions, surges int, adapt, predictive bool) error {
	mode := "monitor only"
	switch {
	case predictive:
		mode = "recompose + Holt forecast"
	case adapt:
		mode = "recompose on drift"
	}
	start := time.Now()
	res, err := experiment.RunAdaptation(experiment.AdaptationConfig{
		Seed:       seed,
		Sessions:   sessions,
		Surges:     surges,
		Adapt:      adapt,
		Predictive: predictive,
	})
	if err != nil {
		return err
	}
	fmt.Printf("engine           live runtime on virtual clock, %d sessions, %d surges\n", sessions, surges)
	fmt.Printf("mode             %s\n", mode)
	fmt.Printf("drift episodes   %d (%d recovered)\n", res.Episodes, res.Recovered)
	fmt.Printf("violation ticks  %d (mean %.1f per episode)\n", res.ViolationTicks, res.MeanViolationTicks)
	fmt.Printf("migrations       %d (%d preemptive, %d abandoned)\n", res.Migrations, res.Preemptive, res.Abandoned)
	fmt.Printf("wall clock       %v\n", time.Since(start).Round(time.Millisecond))
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

// runFairness prints the multi-application fairness figure.
func runFairness(seed int64) error {
	tables, err := experiment.FairnessSweep(experiment.Options{Seed: seed})
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.Fprint(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func tuneSuffix(tune bool, target float64) string {
	if !tune {
		return ""
	}
	return fmt.Sprintf(", tuned to %.0f%% target", 100*target)
}
