package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// quickParams is the -quick run shape: one short episode, enough to
// reach every output check.
func quickParams(seed int64) params {
	return options{seed: seed, quick: true}.params()
}

// Same seed, same inputs: the first requests of every lane of every
// episode serialise to the same bytes.
func TestStreamsRepeat(t *testing.T) {
	render := func(sp *spec, seed int64) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for ep := 0; ep < 2; ep++ {
			for lane := 0; lane < sp.lanes; lane++ {
				st := newStream(sp, seed, ep, lane)
				for i := 0; i < 300; i++ {
					if err := enc.Encode(st.next()); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return buf.Bytes()
	}
	for _, sp := range workloads {
		a, b := render(sp, 7), render(sp, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different request streams", sp.name)
		}
		if bytes.Equal(a, render(sp, 8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same request stream", sp.name)
		}
	}
}

// Requests have the shape their workload declares.
func TestRequestShapes(t *testing.T) {
	for _, sp := range workloads {
		st := newStream(sp, 1, 0, 0)
		dags := 0
		for i := 0; i < 400; i++ {
			r := st.next()
			if err := r.graph().Validate(); err != nil {
				t.Fatalf("%s: request %d: %v", sp.name, i, err)
			}
			seen := make(map[int]bool)
			for _, f := range r.Functions {
				if f < 0 || f >= sp.functions || seen[f] {
					t.Fatalf("%s: request %d has functions %v", sp.name, i, r.Functions)
				}
				seen[f] = true
			}
			if r.Branch != [2]int{} {
				dags++
			} else if n := len(r.Functions); n < sp.minLen || n > sp.maxLen {
				t.Fatalf("%s: path of %d functions", sp.name, n)
			}
		}
		if (sp.dagShare > 0) != (dags > 0) {
			t.Errorf("%s: %d DAGs of 400 at DAG share %v", sp.name, dags, sp.dagShare)
		}
	}
}

// A -quick run of every workload passes its output checks and reports
// every end-to-end metric, none of them zero. Two of them run traced,
// and their spans must nest.
func TestQuickRuns(t *testing.T) {
	for _, sp := range workloads {
		p := quickParams(1)
		p.trace = sp.name == "wire_lease_mix" || sp.name == "dist_stepped"
		r, err := runWorkload(sp, p)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		got := r.endToEnd()
		for _, em := range endToEndMetrics {
			if v := got[em.name].Value; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", sp.name, em.name, v)
			}
		}
		if p.trace {
			checkSpans(t, sp.name, r.logs())
		}
	}
}

// dist_stepped is single-threaded on a virtual clock: a fixed number of
// requests gives the same counts every time.
func TestDistCountsRepeat(t *testing.T) {
	sp := findSpec("dist_stepped")
	once := func() (rec recorder, c counts) {
		sys, err := build(sp, params{seed: 3}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.fill(); err != nil {
			t.Fatal(err)
		}
		before := sys.counts()
		for i := 0; i < 300; i++ {
			sys.cycle(0, &rec)
		}
		c = sys.counts().sub(before)
		if err := sys.drain(); err != nil {
			t.Fatal(err)
		}
		if err := sys.verify(); err != nil {
			t.Fatal(err)
		}
		return rec, c
	}
	a, ca := once()
	b, cb := once()
	if a.failed != 0 || a.attempts != 300 {
		t.Fatalf("%d of %d composes failed: %s", a.failed, a.attempts, a.firstErr)
	}
	if a.admitted != b.admitted || a.phiSum != b.phiSum || ca != cb {
		t.Errorf("two runs of the same 300 requests differ:\n admitted %d vs %d, phi sum %v vs %v\n counts %v\n     vs %v",
			a.admitted, b.admitted, a.phiSum, b.phiSum, ca, cb)
	}
	if ca[cProbes] == 0 || ca[cSteps] == 0 {
		t.Errorf("no probes or steps counted: %v", ca)
	}
}

// Spans nest, and a span's self time is its duration minus what its
// children cover.
func TestSpansNestAndSelfTime(t *testing.T) {
	at := func(ns int64) time.Time { return traceEpoch.Add(time.Duration(ns)) }
	l := newSpanLog(0)
	cyc := l.open(0)
	l.add(cyc, opCompose, 1, at(10), at(40))
	cmp := l.open(cyc)
	l.add(cmp, opStep, 1, at(50), at(60))
	l.add(cmp, opStep, 1, at(60), at(75))
	l.close(cmp, opRelease, 1, at(45), at(80))
	l.close(cyc, opCycle, 1, at(0), at(100))
	self := selfTimes(l.spans)
	want := map[op]int64{opCycle: 100 - 30 - 35, opCompose: 30, opRelease: 35 - 25}
	for i, s := range l.spans {
		if w, ok := want[s.name]; ok && self[i] != w {
			t.Errorf("self time of %s = %d, want %d", s.name, self[i], w)
		}
	}
}

// checkSpans checks that a traced run's spans nest, that self times
// stay inside their spans, and that the JSONL file parses.
func checkSpans(t *testing.T, name string, logs []*spanLog) {
	t.Helper()
	for _, log := range logs {
		if len(log.spans) == 0 {
			t.Fatalf("%s: no spans recorded", name)
		}
		for i, s := range log.spans {
			if s.id != int32(i)+1 || s.end < s.start {
				t.Fatalf("%s: span %d is %+v", name, i, s)
			}
			if s.parent == 0 {
				continue
			}
			if p := log.spans[s.parent-1]; s.start < p.start || s.end > p.end || s.req != p.req {
				t.Fatalf("%s: span %+v is not inside its parent %+v", name, s, p)
			}
		}
		for i, st := range selfTimes(log.spans) {
			if s := log.spans[i]; st < 0 || st > s.end-s.start {
				t.Fatalf("%s: self time %d of span %+v", name, st, s)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := writeSpans(path, logs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var rec struct {
			ID, Parent      int64
			Name            string
			Start, End, Req int64
		}
		if err := json.Unmarshal(line, &rec); err != nil || rec.ID == 0 || rec.Name == "" {
			t.Fatalf("%s: bad trace line %q: %v", name, line, err)
		}
	}
}

// The traced run reports every per-layer metric, and leaves the layers
// a workload does not touch at zero.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	sp := findSpec("dist_stepped")
	got, attempted, err := tracedRun(sp, quickParams(1), t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if attempted < 1 || len(got) != len(perLayer) {
		t.Fatalf("%d attempts, %d metrics, want %d", attempted, len(got), len(perLayer))
	}
	for _, pl := range perLayer {
		m, ok := got[pl.name]
		if !ok || m.Unit != pl.unit {
			t.Errorf("%s missing or in unit %q", pl.name, m.Unit)
		}
	}
	if got["dist.steps_per_compose"].Value == 0 || got["server.compose_rtt_us"].Value != 0 || got["core.probe_us"].Value != 0 {
		t.Errorf("dist_stepped layers: steps %v, server rtt %v, core probe %v",
			got["dist.steps_per_compose"].Value, got["server.compose_rtt_us"].Value, got["core.probe_us"].Value)
	}
}

// BENCHMARK.json declares what the program reports.
func TestManifestMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d run", len(manifest.Workloads), len(workloads))
	}
	for i, w := range manifest.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d declared as %q (%q), the program runs %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(manifest.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics declared, %d reported", len(manifest.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range manifest.EndToEnd {
		if em := endToEndMetrics[i]; m.Name != em.name || m.Unit != em.unit || m.Better != em.better || m.Bound != em.bound {
			t.Errorf("end-to-end metric %d declared as %+v, the program has %+v", i, m, em)
		}
	}
	if len(manifest.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d reported", len(manifest.PerLayer), len(perLayer))
	}
	for i, m := range manifest.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d declared as %+v, the program has %+v", i, m, perLayer[i])
		}
	}
	if float64(manifest.RunSeconds) != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %v", manifest.RunSeconds, defaultSeconds)
	}
}

// Every sample of the reference kernel does the same work: two kernels
// walk the same path, so what a sample reads is the machine, not the
// kernel.
func TestReferenceRepeats(t *testing.T) {
	a, b := newReference(), newReference()
	for i := 0; i < 3; i++ {
		if ns := a.sample(); !(ns > 0) {
			t.Fatalf("sample %d read %v ns per step", i, ns)
		}
		b.sample()
		if a.at != b.at || a.steps != b.steps || a.sink != b.sink {
			t.Fatalf("after sample %d one kernel is at node %d (sink %v), the other at %d (sink %v)", i, a.at, a.sink, b.at, b.sink)
		}
	}
}

// quartiles reads spread the way Python's statistics.quantiles does.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([3, 1, 2, 10], n=4) == [1.25, 2.5, 8.25]
	if q1, q3 = quartiles([]float64{3, 1, 2, 10}); q1 != 1.25 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 1.25, 8.25", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if p := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 95); p != 10 {
		t.Errorf("p95 of 1..10 = %v, want 10", p)
	}
}
