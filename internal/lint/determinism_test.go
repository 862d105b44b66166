package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestDeterminism(t *testing.T) {
	saved := lint.DeterminismScope
	lint.DeterminismScope = append([]string{"testdata/src/determinism"}, saved...)
	defer func() { lint.DeterminismScope = saved }()
	linttest.Run(t, "testdata/src/determinism", lint.Determinism)
}

// TestDeterminismScopeCoversReplayedPackages pins the packages the
// harness oracles replay bit-identically into the analyzer's scope.
// runtime (quota admission + adaptation), workload (scenario-family
// plans), and metrics (Jain aggregation) joined core/dist/harness/faults
// when the multi-app suite started shadowing them; dropping one from
// scope would let wall-clock or map-order leaks back into replayed code.
// server (lease reaper) and obs (scrape timestamps) joined when they adopted
// the injected harness clock: both promise virtual-clock determinism.
func TestDeterminismScopeCoversReplayedPackages(t *testing.T) {
	want := []string{
		"internal/core",
		"internal/dist",
		"internal/harness",
		"internal/faults",
		"internal/runtime",
		"internal/workload",
		"internal/metrics",
		"internal/server",
		"internal/obs",
	}
	in := make(map[string]bool, len(lint.DeterminismScope))
	for _, p := range lint.DeterminismScope {
		in[p] = true
	}
	for _, p := range want {
		if !in[p] {
			t.Errorf("DeterminismScope is missing %q", p)
		}
	}
}

// TestDeterminismScope checks the fixture is ignored when its path is
// not in scope: the analyzer must not fire outside the deterministic
// packages.
func TestDeterminismScope(t *testing.T) {
	pkgs, err := lint.Load("testdata/src/determinism", ".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(pkgs, []*lint.Analyzer{lint.Determinism})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("determinism fired outside its scope: %v", diags)
	}
}
