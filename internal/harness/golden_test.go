package harness

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAdaptGolden pins the adaptation controller's decisions over seeds
// 1–60, each run observed and predictive, to testdata/adapt_golden.txt:
// one line per RunAdaptScenario run with its counts and a SHA-256 of its
// schedule log. The sweep is the only place the controller runs at
// volume, so a refactor of runtime's adaptation path that moves one
// migration, retry or drift transition fails here. Regenerate (only for
// a deliberate behaviour change) with ACP_WRITE_ADAPT_GOLDEN=1.
func TestAdaptGolden(t *testing.T) {
	var b strings.Builder
	for seed := int64(1); seed <= 60; seed++ {
		for _, predictive := range []bool{false, true} {
			rep, err := RunAdaptScenario(AdaptScenarioConfig{Seed: seed, Predictive: predictive})
			if err != nil {
				reportAdaptFailure(t, rep, err)
				return
			}
			fmt.Fprintf(&b, "seed=%d predictive=%t admitted=%d migrations=%d exceeded=%d recovered=%d forgotten=%d abandoned=%d log=%x\n",
				seed, predictive, rep.Admitted, rep.Migrations, rep.Exceeded, rep.Recovered, rep.Forgotten, rep.Abandoned,
				sha256.Sum256([]byte(strings.Join(rep.Log, "\n"))))
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "adapt_golden.txt")
	if os.Getenv("ACP_WRITE_ADAPT_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with ACP_WRITE_ADAPT_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gotLines {
			if i >= len(wantLines) || gotLines[i] != wantLines[i] {
				t.Fatalf("adaptation sweep moved at line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[min(i, len(wantLines)-1)])
			}
		}
		t.Fatalf("adaptation sweep is %d lines, golden has %d", len(gotLines), len(wantLines))
	}
}
