// Command bench is the repository's benchmark: one command that builds
// the system in-process the way cmd/acpserve does, drives it through
// four workloads, checks the outputs and prints every metric by name.
// README.md in this directory defines the workloads and metrics.
//
//	bash bench/run.sh -workload wire_churn -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -all -seed 1            # four workloads, one document
//	bash bench/run.sh -workload walk_loaded -trace 1   # per-layer metrics
//	bash bench/run.sh -all -repeat 5          # the noise table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// episodesPerRun spreads a run over time: every timed metric is the
// median of this many per-episode values, so one noisy spell of the
// machine moves at most one of them.
const episodesPerRun = 5

// defaultSeconds is BENCHMARK.json's run_seconds: the measured seconds
// of one run, split over the episodes.
const defaultSeconds = 20

// result is the document the benchmark prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	all      bool
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	repeat   int
	out      string
}

func main() {
	var o options
	trace := 0
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: wire_churn, wire_lease_mix, walk_loaded or dist_stepped")
	fs.BoolVar(&o.all, "all", false, "run the four workloads in order")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated request stream")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured seconds per run, split over the episodes")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run that yields the per-layer metrics")
	fs.BoolVar(&o.quick, "quick", false, "one episode of 0.3 s: a smoke run of the output checks")
	fs.IntVar(&o.repeat, "repeat", 0, "run N full runs and print the noise table")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for trace_<workload>.jsonl")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = trace != 0
	if err := execute(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func (o options) params() params {
	p := params{seed: o.seed, episodes: episodesPerRun, warmup: 300 * time.Millisecond, trace: o.trace,
		window: time.Duration(o.seconds / episodesPerRun * float64(time.Second))}
	if o.quick {
		p.episodes, p.window, p.warmup = 1, 300*time.Millisecond, 50*time.Millisecond
	}
	return p
}

func execute(o options, stdout, stderr io.Writer) error {
	var specs []*spec
	switch {
	case o.all:
		specs = workloads
	case findSpec(o.workload) != nil:
		specs = []*spec{findSpec(o.workload)}
	default:
		return fmt.Errorf("unknown workload %q (want one of %s, or -all)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds %v must be positive", o.seconds)
	}
	fmt.Fprintln(stderr, runContext())
	if o.repeat > 0 {
		if o.trace {
			return fmt.Errorf("-repeat reads the end-to-end metrics; it cannot be combined with -trace 1")
		}
		return repeat(specs, o, stdout, stderr)
	}

	results := make(map[string]result, len(specs))
	for _, sp := range specs {
		res, err := measure(sp, o, stderr)
		if err != nil {
			return err
		}
		results[sp.name] = res
	}
	// One workload prints its result; -all prints one document keyed
	// by workload.
	var doc interface{} = results
	if !o.all {
		doc = results[specs[0].name]
	}
	line, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// measure makes one run of a workload — the end-to-end run, or with
// -trace the traced run — and prints its metrics to stderr as a table.
func measure(sp *spec, o options, stderr io.Writer) (result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(sp.procs))
	p := o.params()
	var (
		metrics   map[string]metric
		attempted int64
		err       error
	)
	if o.trace {
		metrics, attempted, err = tracedRun(sp, p, o.out, stderr)
	} else {
		var r *run
		if r, err = runWorkload(sp, p); err == nil {
			metrics, attempted = r.endToEnd(), r.attempted()
			printEpisodes(stderr, r)
		}
	}
	if err != nil {
		return result{}, err
	}
	printMetrics(stderr, sp, p, metrics)
	return result{Correct: true, Attempted: attempted, Failed: 0, Metrics: metrics}, nil
}

func printMetrics(w io.Writer, sp *spec, p params, metrics map[string]metric) {
	fmt.Fprintf(w, "%s  seed %d  %d episodes x %v at GOMAXPROCS %d\n", sp.name, p.seed, p.episodes, p.window, sp.procs)
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-38s %14.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
}

// printEpisodes shows the per-episode readings behind the medians: the
// run's own view of how steady the machine was.
func printEpisodes(w io.Writer, r *run) {
	for i, e := range r.episodes {
		fmt.Fprintf(w, "  episode %d: speed %.3f (mean %.3f)  setup %.4f s  %9.1f sessions/s  p50 %.4f ms  mean %.4f ms  p95 %.4f ms  %d of %d admitted\n",
			i, e.speed, e.meanSpeed, e.setupS, e.sessionsPerS, e.p50, e.mean, e.p95, e.admitted, e.attempts)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, sp := range workloads {
		names[i] = sp.name
	}
	return strings.Join(names, ", ")
}
