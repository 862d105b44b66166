package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

func tiny(extra ...string) []string {
	base := []string{"-ipnodes", "300", "-nodes", "60", "-minutes", "10", "-rate", "20"}
	return append(base, extra...)
}

func TestRunBasicSimulation(t *testing.T) {
	if err := run(tiny()); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	for _, alg := range []string{"acp", "Optimal", "sp", "RP", "random", "STATIC"} {
		if err := run(tiny("-alg", alg)); err != nil {
			t.Fatalf("algorithm %s: %v", alg, err)
		}
	}
}

func TestParseAlgorithm(t *testing.T) {
	got, err := parseAlgorithm("optimal")
	if err != nil || got != core.AlgOptimal {
		t.Errorf("parseAlgorithm(optimal) = %v, %v", got, err)
	}
	if _, err := parseAlgorithm("bogus"); err == nil {
		t.Error("bogus algorithm accepted")
	}
}

func TestRunWithTuners(t *testing.T) {
	if err := run(tiny("-tune", "-series")); err != nil {
		t.Fatal(err)
	}
}

func TestRunQoSLevels(t *testing.T) {
	for _, lvl := range []string{"low", "high", "veryhigh"} {
		if err := run(tiny("-qos", lvl)); err != nil {
			t.Fatalf("level %s: %v", lvl, err)
		}
	}
	if err := run(tiny("-qos", "bogus")); err == nil {
		t.Error("bogus QoS level accepted")
	}
}

func TestRunRecordReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.trace")
	if err := run(tiny("-record", path)); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file: %v, %v", fi, err)
	}
	if err := run(tiny("-replay", path)); err != nil {
		t.Fatal(err)
	}
	if err := run(tiny("-replay", filepath.Join(dir, "missing.trace"))); err == nil {
		t.Error("missing replay file accepted")
	}
}

func TestRunInvalidFlags(t *testing.T) {
	if err := run([]string{"-rate", "nope"}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run(tiny("-alg", "bogus")); err == nil {
		t.Error("bogus algorithm accepted")
	}
}

func TestRunInvalidFigureFlags(t *testing.T) {
	if err := run([]string{"-fig", "8a", "-scale", "nope"}); err == nil {
		t.Error("bad -scale accepted")
	}
}

func TestRunSingleFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure run in -short mode")
	}
	// 8a at minimal scale on a small IP graph is the cheapest figure.
	if err := run([]string{"-fig", "8a", "-scale", "0.01", "-ipnodes", "600"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "99x"}); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunSeedAveraged(t *testing.T) {
	if testing.Short() {
		t.Skip("figure run in -short mode")
	}
	if err := run([]string{"-fig", "8a", "-scale", "0.01", "-ipnodes", "500", "-seeds", "2", "-csv"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunOutputFlagUnwritablePath(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "out")
	for _, flagName := range []string{"-trace-out", "-metrics-out", "-record"} {
		err := run(tiny(flagName, missing))
		if err == nil {
			t.Fatalf("%s with unwritable path accepted", flagName)
		}
		if !strings.Contains(err.Error(), flagName) {
			t.Errorf("%s error %q does not name the flag", flagName, err)
		}
	}
}

// readMetricsJSON decodes a -metrics-out file as the /metrics.json
// document.
func readMetricsJSON(t *testing.T, path string) obs.Snapshot {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s obs.Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("-metrics-out is not a /metrics.json document: %v", err)
	}
	return s
}

// TestTraceMatchesCounters is the acceptance cross-check: replaying a
// recorded workload with -trace-out must yield a JSONL trace whose
// probe-span counts equal the metrics.Counters probe totals, with every
// span closed.
func TestTraceMatchesCounters(t *testing.T) {
	dir := t.TempDir()
	recorded := filepath.Join(dir, "w.trace")
	if err := run(tiny("-record", recorded)); err != nil {
		t.Fatal(err)
	}
	spans := filepath.Join(dir, "probes.jsonl")
	metricsPath := filepath.Join(dir, "metrics.json")
	if err := run(tiny("-replay", recorded, "-trace-out", spans, "-metrics-out", metricsPath)); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty span trace")
	}
	if leaked := obs.LeakedSpans(events); len(leaked) != 0 {
		t.Fatalf("%d probe spans leaked: %v", len(leaked), leaked)
	}

	var spawned, returned int64
	perRequest := make(map[int64]int64)
	for _, e := range events {
		switch e.Type {
		case obs.EventProbeSpawned:
			spawned++
			perRequest[e.Req]++
		case obs.EventProbeReturned:
			returned++
		}
	}
	counters := readMetricsJSON(t, metricsPath).Counters
	if got := counters["experiment.messages.probes"]; got != spawned {
		t.Errorf("metrics probes = %d, trace has %d probe.spawned events", got, spawned)
	}
	if got := counters["experiment.messages.probe_returns"]; got != returned {
		t.Errorf("metrics probe returns = %d, trace has %d probe.returned events", got, returned)
	}
	var fromRequests int64
	for _, n := range perRequest {
		fromRequests += n
	}
	if fromRequests != spawned {
		t.Errorf("per-request span counts sum to %d, want %d", fromRequests, spawned)
	}
}

func TestRunFailures(t *testing.T) {
	if err := run(tiny("-failures", "0.5", "-repair", "3", "-recompose")); err != nil {
		t.Fatal(err)
	}
}

// TestRunDistFaultMode plays two seeds' scenarios on the distributed
// engine, each under its own fault mix and audited at every step.
func TestRunDistFaultMode(t *testing.T) {
	for _, seed := range []string{"1", "7"} {
		if err := run([]string{"-dist", "-seed", seed, "-requests", "8"}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunAdapt plays a drift-adaptation scenario with the controller
// recomposing on drift, then with the Holt forecast on.
func TestRunAdapt(t *testing.T) {
	if err := run([]string{"-adapt", "-seed", "2", "-sessions", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-adapt", "-seed", "4", "-adapt-predictive"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunServeObs runs a tiny simulation with the observability server
// up and zero hold: the flag path must bind, print the URL, and shut
// down cleanly with the run.
func TestRunServeObs(t *testing.T) {
	if err := run(tiny("-serve-obs", "127.0.0.1:0")); err != nil {
		t.Fatal(err)
	}
	// An unbindable address fails fast before the simulation starts.
	if err := run(tiny("-serve-obs", "256.0.0.1:bad")); err == nil {
		t.Fatal("unbindable -serve-obs address accepted")
	}
}

// TestRunMultiApp plays a short oracle-audited multi-application
// episode per flag path: a single named family, the "all" spelling,
// and an unknown family name.
func TestRunMultiApp(t *testing.T) {
	args := []string{"-multi-app", "-family", "churn", "-tenants", "2",
		"-ticks", "5", "-load", "1"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-multi-app", "-family", "all", "-ticks", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-multi-app", "-family", "bogus"}); err == nil {
		t.Error("unknown scenario family accepted")
	}
}
