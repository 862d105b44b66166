package experiment

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestFiguresGolden pins every Figures() and Ablations() table at the
// package's test options (seed 1, scale 0.01, 800 IP nodes) to
// testdata/figures_golden.txt, so a change to the event scheduler, the
// engines or the workload cannot move the paper's tables silently. The
// combined 6 and 7 runners cover 6a/6b and 7a/7b. Regenerate (only for a
// deliberate behaviour change) with ACP_WRITE_FIGURES_GOLDEN=1.
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs in -short mode")
	}
	runners := make(map[string]FigureFunc)
	for name, fn := range Figures() {
		switch name {
		case "6a", "6b", "7a", "7b":
		default:
			runners[name] = fn
		}
	}
	for name, fn := range Ablations() {
		runners["ablation-"+name] = fn
	}
	names := make([]string, 0, len(runners))
	for name := range runners {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		tables, err := runners[name](tinyOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b.WriteString("== " + name + "\n")
		for _, tbl := range tables {
			if err := tbl.Fprint(&b); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "figures_golden.txt")
	if os.Getenv("ACP_WRITE_FIGURES_GOLDEN") != "" {
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
		t.Fatalf("missing golden file (regenerate with ACP_WRITE_FIGURES_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gotLines {
			if i >= len(wantLines) || gotLines[i] != wantLines[i] {
				t.Fatalf("figures moved at line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[min(i, len(wantLines)-1)])
			}
		}
		t.Fatalf("figures are %d lines, golden has %d", len(gotLines), len(wantLines))
	}
}
