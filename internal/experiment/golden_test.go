package experiment

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestFiguresGolden pins every Figures() and Ablations() table at the
// package's test options (seed 1, scale 0.01, 800 IP nodes) to
// testdata/figures_golden.txt, so a change to the event scheduler, the
// engines or the workload cannot move the paper's tables silently. The
// report's runners cover them all: the combined 6 and 7 runners cover
// 6a/6b and 7a/7b. It renders the paper report from the same tables, so
// a template error, or a runner the template places twice or never,
// fails here. Regenerate (only for a deliberate behaviour change) with
// ACP_WRITE_FIGURES_GOLDEN=1.
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs in -short mode")
	}
	var b strings.Builder
	tables := make(map[string][]*Table, len(reportRunners))
	for _, name := range reportRunners {
		fn, ok := Runner(name)
		if !ok {
			t.Fatalf("no runner %q", name)
		}
		ts, err := fn(tinyOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tables[name] = ts
		b.WriteString("== " + name + "\n")
		for _, tbl := range ts {
			if err := tbl.Fprint(&b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := renderReport(io.Discard, reportTemplate, tinyOptions(), tables); err != nil {
		t.Fatalf("report: %v", err)
	}
	checkGolden(t, "figures_golden.txt", b.String())
}

// TestFailoverGolden pins examples/failover's runs over seeds 1-4: N=400
// on 1 600 IP nodes, 60 reqs/min for 40 simulated minutes, one crash a
// minute and a 5-minute repair, crash only and with recomposition. Each
// line is the example's line for that mode, after the seed; seed 1's are
// what the example prints. Regenerate (only for a deliberate behaviour
// change) with ACP_WRITE_FIGURES_GOLDEN=1.
func TestFailoverGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("failover runs in -short mode")
	}
	scfg := DefaultSystemConfig()
	scfg.IPNodes = 1600
	p, err := BuildPlatform(scfg)
	if err != nil {
		t.Fatal(err)
	}
	modes := []string{"crash only     ", "with recompose "}
	results, err := sweep(4, len(modes), 0, func(r, c int) (*Platform, RunConfig) {
		rc := DefaultRunConfig(60)
		rc.Seed = int64(r + 1)
		rc.Duration = 40 * time.Minute
		rc.FailuresPerMinute = 1
		rc.RepairTime = 5 * time.Minute
		rc.RecomposeOnFailure = c == 1
		return p, rc
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for r, row := range results {
		for c, res := range row {
			recovered := "-"
			if c == 1 {
				recovered = fmt.Sprintf("%d/%d sessions recovered", res.Recomposed, res.Disrupted)
			}
			fmt.Fprintf(&b, "seed %d  %s  success %.1f%%  crashes %d  disrupted %d  %s\n",
				r+1, modes[c], 100*res.SuccessRate, res.Failures, res.Disrupted, recovered)
		}
	}
	checkGolden(t, "failover_golden.txt", b.String())
}

// checkGolden compares got with testdata/<name>, or writes it there
// under ACP_WRITE_FIGURES_GOLDEN, and fails at the first line that moved.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
				t.Fatalf("%s moved at line %d:\n got %s\nwant %s", name, i+1, gotLines[i], wantLines[min(i, len(wantLines)-1)])
			}
		}
		t.Fatalf("%s: output is %d lines, golden has %d", name, len(gotLines), len(wantLines))
	}
}
