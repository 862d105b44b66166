package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/dist"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/qos"
)

// writeTrace records a small balanced trace: two requests, four probes,
// two pruned in flight — one unqualified, one cut by the incumbent bound
// at its candidate — and three candidates cut before send: one by
// selection at the root, one by selection under a parent, and one by the
// sender's incumbent bound.
func writeTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "probes.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewJSONLSink(f)
	tr := obs.New(sink)
	tr.RequestReceived(1, 0)
	tr.ProbeSpawned(1, 1, 0, 2, 1.5)
	tr.ProbeForwarded(1, 1, 0, 2, 1)
	tr.ProbeSpawned(1, 2, 1, 3, 2.5)
	tr.ProbeReturned(1, 2, 3, 4.0)
	tr.Decided(1, 0, "")
	tr.Committed(1, 0)
	tr.RequestReceived(2, 5)
	tr.CandidatePruned(2, 0, 0, 0, 6, obs.ReasonQoS)
	tr.ProbeSpawned(2, 3, 0, 7, 1.0)
	tr.CandidatePruned(2, 3, 0, 0, 7, obs.ReasonResources)
	tr.CandidatePruned(2, 0, 3, 1, 8, obs.ReasonRiskRank)
	tr.ProbeSpawned(2, 4, 1, 9, 2.0)
	tr.CandidatePruned(2, 4, 3, 1, 9, obs.ReasonBound)
	tr.CandidatePruned(2, 0, 3, 1, 10, obs.ReasonBound)
	tr.Decided(2, 5, obs.ReasonNoComposition)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSummariseTrace(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-requests", writeTrace(t)}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"2 requests",
		"4 spawned, 1 returned, 1 forwarded, 0 dropped, 2 pruned in flight",
		"before send      3 candidates cut, never sent (2 attributed to a parent probe)",
		"1 committed, 0 rolled back",
		"                   before send in flight",
		"qos                        1         0",
		"resources                  0         1",
		"risk-rank                  1         0",
		"incumbent-bound            1         1",
		"every spawned probe span closed",
		"per-request spans",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestLeakedSpanReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "leak.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewJSONLSink(f)
	tr := obs.New(sink)
	tr.ProbeSpawned(1, 7, 0, 2, 1.0)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out strings.Builder
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "LEAKED SPANS") {
		t.Errorf("leak not reported:\n%s", out.String())
	}
}

// simTrace records a real probe-lifecycle trace by driving requests
// through the deterministic simulation harness with a JSONL sink
// attached — the same artifact acpsim -trace-out produces, but seeded
// and instantaneous.
func simTrace(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	cfg := dist.DefaultConfig()
	cfg.Seed = 3
	cfg.IPNodes = 64
	cfg.OverlayNodes = 8
	cfg.NeighborsPerNode = 3
	cfg.NumFunctions = 4
	cfg.ComponentsPerNode = 2
	cfg.Tracer = obs.New(sink)
	s, err := harness.NewSim(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		req := &component.Request{
			Graph:        component.NewPathGraph([]component.FunctionID{0, 1, 2}),
			QoSReq:       qos.Vector{Delay: 1e5, LossCost: qos.LossCost(0.9)},
			ResReq:       []qos.Resources{{CPU: 5, Memory: 50}, {CPU: 5, Memory: 50}, {CPU: 5, Memory: 50}},
			BandwidthReq: 20,
			Client:       i,
			Duration:     time.Hour,
		}
		h, err := s.Cluster.ComposeAsync(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunToQuiescence(); err != nil {
			t.Fatal(err)
		}
		comp, _, done := h.Poll()
		if !done {
			t.Fatalf("request %d unresolved at quiescence", i)
		}
		if comp != nil {
			s.Cluster.Release(req, comp)
			if err := s.RunToQuiescence(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sim.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSimulatedTrace summarises a trace the simulation harness
// recorded: every span the protocol actually opened must close, and
// the per-request table must cover each simulated request.
func TestSimulatedTrace(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-requests", simTrace(t)}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"3 requests",
		"every spawned probe span closed",
		"per-request spans",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "LEAKED SPANS") {
		t.Errorf("clean simulated trace reported leaked spans:\n%s", got)
	}
}

// TestMalformedLine: a trace cut off mid-record (crashed writer) must
// fail loudly with the offending event's position, not be half-read.
func TestMalformedLine(t *testing.T) {
	good, err := os.ReadFile(simTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	truncated := good[:len(good)-len(good)/3] // slice into the middle of a record
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	if err := os.WriteFile(path, truncated, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{path}, &out); err == nil {
		t.Fatal("torn trace file accepted")
	}

	garbled := filepath.Join(t.TempDir(), "garbled.jsonl")
	if err := os.WriteFile(garbled, []byte("{\"type\":\"probe.spawned\"}\nnot json at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{garbled}, &out); err == nil {
		t.Fatal("garbled trace line accepted")
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{filepath.Join(t.TempDir(), "missing.jsonl")}, &out); err == nil {
		t.Error("missing file accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{empty}, &out); err == nil {
		t.Error("empty trace accepted")
	}
	if err := run([]string{"a", "b"}, &out); err == nil {
		t.Error("two positional args accepted")
	}
}

// TestSpanDurationsAndDrift checks the per-span-kind quantile table and
// the qos.drift / trace.dropped accounting added with the live
// observability plane.
func TestSpanDurationsAndDrift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drift.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewJSONLSink(f)
	tr := obs.New(sink)
	tr.RequestReceived(1, 0)
	tr.ProbeSpawned(1, 1, 0, 2, 1.5)
	tr.HoldAcquired(1, 1, 0, 2)
	tr.ProbeReturned(1, 1, 2, 8.0)
	tr.Decided(1, 0, "")
	tr.HoldReleased(1, -1)
	tr.Committed(1, 0)
	tr.QoSDrift("1", 1.4, 1, obs.ReasonDriftExceeded)
	tr.QoSDrift("1", 0.9, 1, obs.ReasonDriftRecovered)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"qos drift        1 exceeded, 1 recovered",
		"span durations (ms):",
		// The probe span's duration is its recorded walk RTT.
		"probe            1     8.000",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "TRACE GAPS") {
		t.Errorf("unexpected trace gap warning:\n%s", got)
	}
}
