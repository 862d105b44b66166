package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
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

// parityGoldenPath holds per-seed decision fingerprints captured from
// the pre-scratch-buffer walk implementation. The allocation rework must
// be bit-identical: same admissions, same components, same phi down to
// the last mantissa bit, same probe counts, same RNG consumption.
// Regenerate with ACP_WRITE_PARITY_GOLDEN=1 (only when a deliberate
// behaviour change is being landed).
const parityGoldenPath = "testdata/parity_golden.json"

type parityClock struct{ now time.Duration }

// parityFingerprint replays a deterministic request sweep for one seed
// across the probing algorithms and renders every decision as text.
// Everything observable goes in: admissions, chosen components, phi and
// accumulated QoS in hex float (exact bits), probe/path/qualified
// counts, and latency. It is self-contained so the identical file can
// run unchanged against the old and new walk implementations.
func parityFingerprint(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	tcfg := topology.DefaultConfig()
	tcfg.Nodes = 200
	g, err := topology.Generate(tcfg, rng)
	if err != nil {
		panic(err)
	}
	ocfg := overlay.DefaultConfig()
	ocfg.Nodes = 30
	mesh, err := overlay.Build(g, ocfg, rng)
	if err != nil {
		panic(err)
	}
	pcfg := component.DefaultPlacementConfig()
	pcfg.NumFunctions = 10
	pcfg.ComponentsPerNode = 2
	cat, err := component.Place(mesh.NumNodes(), pcfg, rng)
	if err != nil {
		panic(err)
	}

	var lines []string
	for _, alg := range []Algorithm{AlgACP, AlgSP, AlgRP, AlgOptimal} {
		clk := &parityClock{}
		counters := &metrics.Counters{}
		ledger := state.NewLedger(mesh, qos.Resources{CPU: 100, Memory: 1000}, func() time.Duration { return clk.now })
		global, err := state.NewGlobal(ledger, mesh, state.DefaultGlobalConfig(), counters)
		if err != nil {
			panic(err)
		}
		env := Env{
			Mesh:     mesh,
			Catalog:  cat,
			Registry: discovery.NewRegistry(cat, mesh.NumNodes(), counters),
			Ledger:   ledger,
			Global:   global,
			Counters: counters,
			Now:      func() time.Duration { return clk.now },
			Rand:     rand.New(rand.NewSource(seed ^ 0x5DEECE66D)),
		}
		cfg := DefaultConfig()
		cfg.Algorithm = alg
		composer, err := NewComposer(env, cfg)
		if err != nil {
			panic(err)
		}

		reqRng := rand.New(rand.NewSource(seed*7919 + int64(alg)))
		for i := 0; i < 12; i++ {
			clk.now += time.Second
			req := randomRequest(reqRng, int64(i+1), pcfg.NumFunctions, mesh.NumNodes())
			out, err := composer.Probe(req)
			if err != nil {
				panic(err)
			}
			head := fmt.Sprintf("%s req=%d client=%d probes=%d paths=%d qual=%d",
				alg, req.ID, req.Client, out.ProbesSent, out.PathsReturned, out.Qualified)
			if !out.Success() {
				lines = append(lines, head+" reject")
				continue
			}
			if err := composer.Commit(out); err != nil {
				panic(err)
			}
			lines = append(lines, fmt.Sprintf("%s admit comps=%v phi=%s delay=%s loss=%s lat=%d",
				head, out.Best.Components,
				strconv.FormatFloat(out.Best.Phi, 'x', -1, 64),
				strconv.FormatFloat(out.Best.QoS.Delay, 'x', -1, 64),
				strconv.FormatFloat(out.Best.QoS.LossCost, 'x', -1, 64),
				int64(out.Latency)))
		}
	}
	return lines
}

// TestDecisionParityGolden replays 50 seeds against fingerprints
// captured from the walk implementation before the scratch-buffer
// rework. Any drift — a different admission, component choice, phi bit,
// probe count, or RNG draw — fails here with a report that says whether
// a decision moved or only the walk's counts, per token, and the first
// diverging line.
func TestDecisionParityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("parity sweep is a few seconds; skipped in -short")
	}
	const numSeeds = 50
	got := make(map[string][]string, numSeeds)
	for seed := int64(1); seed <= numSeeds; seed++ {
		got[strconv.FormatInt(seed, 10)] = parityFingerprint(seed)
	}

	if os.Getenv("ACP_WRITE_PARITY_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(parityGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parityGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", parityGoldenPath)
		return
	}

	data, err := os.ReadFile(parityGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with ACP_WRITE_PARITY_GOLDEN=1): %v", err)
	}
	want := make(map[string][]string)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != numSeeds {
		t.Fatalf("golden file has %d seeds, want %d", len(want), numSeeds)
	}
	if report := parityDrift(want, got, numSeeds); report != "" {
		t.Fatal(report)
	}
}

// decisionTokens are the fields of a parity line that say what was
// decided; every other field counts what the walk did to get there. A
// change to the walk's pruning may move only the latter.
var decisionTokens = []string{"alg", "req", "client", "verdict", "comps", "phi", "delay", "loss"}

// walkTokens are the walk's counts: probes sent, paths returned,
// qualified returns, and the deepest probe's latency.
var walkTokens = []string{"probes", "paths", "qual", "lat"}

// parityTokenNames is every token, decision tokens first.
var parityTokenNames = append(slices.Clone(decisionTokens), walkTokens...)

var parityField = regexp.MustCompile(`(\w+)=(\[[^\]]*\]|\S+)`)

// parityTokens splits one parity line into its named fields; the verdict
// and the algorithm are the two unnamed ones.
func parityTokens(line string) map[string]string {
	tok := map[string]string{"verdict": "reject"}
	if alg, _, ok := strings.Cut(line, " "); ok {
		tok["alg"] = alg
	}
	if strings.Contains(line, " admit ") {
		tok["verdict"] = "admit"
	}
	for _, m := range parityField.FindAllStringSubmatch(line, -1) {
		tok[m[1]] = m[2]
	}
	return tok
}

// parityDrift compares got with the golden want and returns "" when they
// are equal, else a report that says whether any decision moved or only
// the walk's counts did, how many lines each token moved on (per
// algorithm), and the first diverging line.
func parityDrift(want, got map[string][]string, numSeeds int64) string {
	moved := map[string]map[string]int{} // token -> algorithm -> lines
	var lines, total, decisions int
	first := ""
	for seed := int64(1); seed <= numSeeds; seed++ {
		key := strconv.FormatInt(seed, 10)
		w, g := want[key], got[key]
		if len(w) != len(g) {
			return fmt.Sprintf("parity golden: DECISIONS MOVED: seed %d has %d decisions, golden has %d", seed, len(g), len(w))
		}
		total += len(w)
		for i := range w {
			if g[i] == w[i] {
				continue
			}
			lines++
			if first == "" {
				first = fmt.Sprintf("first divergence, seed %d decision %d:\n golden: %s\n    got: %s", seed, i, w[i], g[i])
			}
			wt, gt := parityTokens(w[i]), parityTokens(g[i])
			decision := false
			for i, name := range parityTokenNames {
				if wt[name] == gt[name] {
					continue
				}
				if moved[name] == nil {
					moved[name] = map[string]int{}
				}
				moved[name][wt["alg"]]++
				decision = decision || i < len(decisionTokens)
			}
			if decision {
				decisions++
			}
		}
	}
	if lines == 0 {
		return ""
	}
	var b strings.Builder
	if decisions > 0 {
		fmt.Fprintf(&b, "parity golden: DECISIONS MOVED on %d lines (%d of %d lines differ)\n", decisions, lines, total)
	} else {
		fmt.Fprintf(&b, "parity golden: walk counts only, decisions unchanged (%d of %d lines differ)\n", lines, total)
	}
	for _, name := range parityTokenNames {
		if moved[name] == nil {
			continue
		}
		var algs []string
		for alg := range moved[name] {
			algs = append(algs, alg)
		}
		slices.Sort(algs)
		n, per := 0, []string{}
		for _, alg := range algs {
			n += moved[name][alg]
			per = append(per, fmt.Sprintf("%s %d", alg, moved[name][alg]))
		}
		fmt.Fprintf(&b, "  %-8s %4d lines (%s)\n", name, n, strings.Join(per, ", "))
	}
	b.WriteString(first)
	return b.String()
}

// TestParityDriftReport pins the golden's drift classes: a line whose
// probe count and latency moved is a walk-count drift, a line whose phi
// or verdict moved is a decision drift, and equal maps report nothing.
func TestParityDriftReport(t *testing.T) {
	admit := "ACP req=1 client=3 probes=%d paths=2 qual=2 admit comps=[4 5] phi=%s delay=0x1p+00 loss=0x1p-04 lat=%d"
	reject := "Optimal req=2 client=4 probes=30 paths=0 qual=0 reject"
	want := map[string][]string{"1": {fmt.Sprintf(admit, 9, "0x1p-01", 100), reject}}
	if got := parityDrift(want, want, 1); got != "" {
		t.Fatalf("equal fingerprints drifted:\n%s", got)
	}

	walk := map[string][]string{"1": {fmt.Sprintf(admit, 7, "0x1p-01", 90), reject}}
	got := parityDrift(want, walk, 1)
	for _, line := range []string{"walk counts only, decisions unchanged (1 of 2 lines differ)", "probes      1 lines (ACP 1)", "lat         1 lines (ACP 1)"} {
		if !strings.Contains(got, line) {
			t.Errorf("walk-count drift report lacks %q:\n%s", line, got)
		}
	}
	if strings.Contains(got, "DECISIONS") || strings.Contains(got, "phi ") {
		t.Errorf("walk-count drift reported as a decision drift:\n%s", got)
	}

	decided := map[string][]string{"1": {fmt.Sprintf(admit, 9, "0x1.0000000000001p-01", 100), "Optimal req=2 client=4 probes=30 paths=1 qual=1 admit comps=[1 2] phi=0x1p+00 delay=0x1p+00 loss=0x1p+00 lat=5"}}
	got = parityDrift(want, decided, 1)
	for _, line := range []string{"DECISIONS MOVED on 2 lines (2 of 2 lines differ)", "verdict     1 lines (Optimal 1)", "phi         2 lines (ACP 1, Optimal 1)", "paths       1 lines (Optimal 1)"} {
		if !strings.Contains(got, line) {
			t.Errorf("decision drift report lacks %q:\n%s", line, got)
		}
	}

	if got := parityDrift(want, map[string][]string{"1": {reject}}, 1); !strings.Contains(got, "DECISIONS MOVED: seed 1 has 1 decisions, golden has 2") {
		t.Errorf("a lost decision line was not reported as a decision drift:\n%s", got)
	}
}
