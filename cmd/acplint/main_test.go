package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fixmodWant is one expected diagnostic per analyzer: the fixture
// module deliberately violates each of the two invariants exactly
// once, so the full suite is exercised end to end.
var fixmodWant = []struct{ analyzer, fragment string }{
	{"acpdeterminism", "time.Now reads the wall clock"},
	{"acpatomic", "stats.ops is accessed with sync/atomic elsewhere but read plainly"},
}

// TestFixtureModuleFindings runs the multichecker standalone over the
// deliberately broken fixture module and asserts on the exit status and
// the diagnostics it prints.
func TestFixtureModuleFindings(t *testing.T) {
	var out, errb bytes.Buffer
	code := run("testdata/fixmod", []string{"./..."}, &out, &errb)
	if code != exitDiagnostics {
		t.Fatalf("exit = %d, want %d (stdout %q, stderr %q)", code, exitDiagnostics, out.String(), errb.String())
	}
	got := out.String()
	for _, want := range fixmodWant {
		if !strings.Contains(got, "["+want.analyzer+"]") {
			t.Errorf("stdout missing a [%s] diagnostic:\n%s", want.analyzer, got)
		}
		if !strings.Contains(got, want.fragment) {
			t.Errorf("stdout missing %q:\n%s", want.fragment, got)
		}
	}
	if n := strings.Count(got, "\n"); n != len(fixmodWant) {
		t.Errorf("want exactly %d diagnostics, got %d:\n%s", len(fixmodWant), n, got)
	}
}

// TestJSONOutput runs -json over the fixture module and round-trips the
// records through encoding/json: every record carries file, line,
// analyzer, and message, and re-encoding reproduces the same records.
func TestJSONOutput(t *testing.T) {
	var out, errb bytes.Buffer
	code := run("testdata/fixmod", []string{"-json", "./..."}, &out, &errb)
	if code != exitDiagnostics {
		t.Fatalf("exit = %d, want %d (stderr %q)", code, exitDiagnostics, errb.String())
	}
	var records []jsonDiagnostic
	if err := json.Unmarshal(out.Bytes(), &records); err != nil {
		t.Fatalf("stdout is not a JSON diagnostic array: %v\n%s", err, out.String())
	}
	if len(records) != len(fixmodWant) {
		t.Fatalf("want %d records, got %d: %+v", len(fixmodWant), len(records), records)
	}
	byAnalyzer := map[string]jsonDiagnostic{}
	for _, r := range records {
		if r.File == "" || r.Line <= 0 || r.Column <= 0 || r.Analyzer == "" || r.Message == "" {
			t.Errorf("incomplete record: %+v", r)
		}
		if filepath.IsAbs(r.File) {
			t.Errorf("file should be relative to the scanned dir: %q", r.File)
		}
		byAnalyzer[r.Analyzer] = r
	}
	for _, want := range fixmodWant {
		r, ok := byAnalyzer[want.analyzer]
		if !ok {
			t.Errorf("no record from %s", want.analyzer)
			continue
		}
		if !strings.Contains(r.Message, want.fragment) {
			t.Errorf("%s record message %q missing %q", want.analyzer, r.Message, want.fragment)
		}
	}
	// Round trip: marshal the decoded records and decode again.
	re, err := json.Marshal(records)
	if err != nil {
		t.Fatal(err)
	}
	var again []jsonDiagnostic
	if err := json.Unmarshal(re, &again); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(records, again) {
		t.Errorf("round trip changed the records:\n%+v\n%+v", records, again)
	}
}

// TestRepoClean is the merge gate in miniature: the analyzer suite must
// exit 0 over the entire repository.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	var out, errb bytes.Buffer
	code := run("../..", []string{"./..."}, &out, &errb)
	if code != exitClean {
		t.Fatalf("acplint over the repo: exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
}

func TestVersionFlag(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(".", []string{"-V=full"}, &out, &errb)
	if code != exitClean {
		t.Fatalf("exit = %d, stderr %q", code, errb.String())
	}
	if !strings.Contains(out.String(), " version devel buildID=") {
		t.Errorf("version line malformed: %q", out.String())
	}
}

// TestVetTool builds the real binary and drives it through
// `go vet -vettool` over the fixture module, exercising the vet.cfg
// unitchecker protocol end to end.
func TestVetTool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the acplint binary")
	}
	repoRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "acplint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/acplint")
	build.Dir = repoRoot
	if outb, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building acplint: %v\n%s", err, outb)
	}

	fixmod, err := filepath.Abs("testdata/fixmod")
	if err != nil {
		t.Fatal(err)
	}
	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = fixmod
	outb, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool succeeded on the broken fixture:\n%s", outb)
	}
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("go vet did not run: %v\n%s", err, outb)
	}
	got := string(outb)
	for _, want := range fixmodWant {
		if !strings.Contains(got, want.fragment) {
			t.Errorf("vet output missing %q (from %s):\n%s", want.fragment, want.analyzer, got)
		}
	}
	// go vet analyzes test packages too; the determinism analyzer must
	// exempt test files (compose_test.go also calls time.Now).
	if strings.Contains(got, "compose_test.go") {
		t.Errorf("vet flagged a _test.go file:\n%s", got)
	}

	// The clean path: vetting only the file set with no violations.
	clean := exec.Command("go", "vet", "-vettool="+bin, "./...")
	clean.Dir = cleanModule(t)
	if outb, err := clean.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool failed on a clean module: %v\n%s", err, outb)
	}
}

// cleanModule materialises a tiny violation-free module in a temp dir.
func cleanModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module cleanmod\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "internal", "core", "core.go"),
		"package core\n\n// Sum is deterministic.\nfunc Sum(vals []int) int {\n\tn := 0\n\tfor _, v := range vals {\n\t\tn += v\n\t}\n\treturn n\n}\n")
	return dir
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAcplintRepo measures the analyzer suite's wall time over the
// entire repository — the cost every CI run pays for the lint gate.
// Loading (parse + type-check) dominates; the analyzers themselves are
// single-pass over the ASTs.
func BenchmarkAcplintRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var out, errb bytes.Buffer
		if code := run("../..", []string{"./..."}, &out, &errb); code != exitClean {
			b.Fatalf("acplint over the repo: exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
		}
	}
}
