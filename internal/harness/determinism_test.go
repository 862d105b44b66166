package harness

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// determinismScope lists the package trees, under internal/, that the
// goldens and the harness oracles replay bit for bit under a fixed seed.
// A wall-clock read or a draw from the process-global random source there
// is a correctness bug, not style: runtime, workload and metrics are
// replayed by the multi-app replica oracle, and server (the lease reaper)
// and obs (scrape timestamps) run on the injected clock.
var determinismScope = []string{
	"core", "dist", "harness", "faults", "runtime",
	"workload", "metrics", "server", "obs",
}

// wallClockFuncs are the time package entry points that read or schedule
// against the wall clock. Durations and formatting are fine.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"NewTimer": true, "NewTicker": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"Sleep": true,
}

// seededRand are the names in math/rand (and /v2) that do not touch the
// global source: the constructors of injectable generators and the types
// they build. Every other name there is a package-level draw.
var seededRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
	"Rand": true, "Source": true, "Source64": true, "Zipf": true, "PCG": true, "ChaCha8": true,
}

// watched maps the import paths the check reads to the kind of reference
// it looks for; each package's default name is its kind.
var watched = map[string]string{"time": "time", "math/rand": "rand", "math/rand/v2": "rand"}

const ndWaiver = "//acp:nondeterminism-ok"

// nondeterministic parses one Go source. It returns a finding for every
// wall-clock or global-rand reference not on a line that carries a
// justified //acp:nondeterminism-ok, and, apart, one for every waiver
// without a reason and for every waiver that covers nothing. The package
// behind a selector is read from the file's imports, so c.clk.Now() is
// not a wall clock.
func nondeterministic(fset *token.FileSet, name string, src any) (calls, waived []string, err error) {
	f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
	if err != nil {
		return nil, nil, err
	}
	report := func(out *[]string, pos token.Pos, format string, args ...any) {
		*out = append(*out, fset.Position(pos).String()+": "+fmt.Sprintf(format, args...))
	}
	type waiver struct {
		pos  token.Pos
		used bool
	}
	waivers := map[int]*waiver{} // by line
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if reason, ok := strings.CutPrefix(c.Text, ndWaiver); ok {
				if strings.TrimSpace(reason) == "" {
					report(&waived, c.Pos(), "%s lacks a reason: every waiver must say why", ndWaiver)
				}
				waivers[fset.Position(c.Pos()).Line] = &waiver{pos: c.Pos()}
			}
		}
	}
	pkgs := map[string]string{} // local name → "time" or "rand"
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		kind := watched[path]
		if kind == "" {
			continue
		}
		local := kind
		if imp.Name != nil {
			local = imp.Name.Name
		}
		if local == "." {
			report(&calls, imp.Pos(), "dot import of %s hides its calls from this check", path)
		}
		pkgs[local] = kind
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		var msg string
		switch pkgs[id.Name] {
		case "time":
			if wallClockFuncs[sel.Sel.Name] {
				msg = "reads the wall clock; go through an injected clock.Clock"
			}
		case "rand":
			if !seededRand[sel.Sel.Name] {
				msg = "draws from the process-global source; use an injected seeded *rand.Rand"
			}
		}
		if msg == "" {
			return true
		}
		if w := waivers[fset.Position(sel.Pos()).Line]; w != nil {
			w.used = true
			return true
		}
		report(&calls, sel.Pos(), "%s.%s %s (or waive with %s <why>)", id.Name, sel.Sel.Name, msg, ndWaiver)
		return true
	})
	for _, w := range waivers {
		if !w.used {
			report(&waived, w.pos, "%s covers no wall-clock or global-rand reference", ndWaiver)
		}
	}
	sort.Strings(calls)
	sort.Strings(waived)
	return calls, waived, nil
}

// walkGo calls fn on every Go file under root, testdata trees excepted,
// and returns how many it visited. Test files are visited only if tests.
func walkGo(t *testing.T, root string, tests bool, fn func(path string)) int {
	t.Helper()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || (!tests && strings.HasSuffix(path, "_test.go")) {
			return nil
		}
		files++
		fn(path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDeterminism walks the non-test Go files of every package tree in
// determinismScope and fails on each unwaived wall-clock or global-rand
// reference there.
func TestDeterminism(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range determinismScope {
		walkGo(t, filepath.Join("..", dir), false, func(path string) {
			calls, _, err := nondeterministic(fset, path, nil)
			if err != nil {
				t.Error(err)
			}
			for _, f := range calls {
				t.Error(f)
			}
		})
	}
}

// TestDeterminismScopeCoversReplayedPackages pins determinismScope to the
// packages the goldens and the replica oracles replay, and checks each
// tree still holds Go files: dropping or moving one would let wall-clock
// and global-rand leaks back into replayed code unseen.
func TestDeterminismScopeCoversReplayedPackages(t *testing.T) {
	want := []string{"core", "dist", "harness", "faults", "runtime", "workload", "metrics", "server", "obs"}
	in := make(map[string]bool, len(determinismScope))
	for _, dir := range determinismScope {
		in[dir] = true
	}
	for _, dir := range want {
		if !in[dir] {
			t.Errorf("determinismScope is missing %q", dir)
		}
	}
	for _, dir := range determinismScope {
		root := filepath.Join("..", dir)
		if walkGo(t, root, false, func(string) {}) == 0 {
			t.Errorf("determinism scope %q holds no Go files; was the package moved?", root)
		}
	}
}

// TestWaiverAudit walks every Go file of the repository and fails on a
// //acp:nondeterminism-ok without a reason or one that covers no
// wall-clock or global-rand reference: a stale waiver would silently arm
// an escape hatch for the next call put on its line.
func TestWaiverAudit(t *testing.T) {
	fset := token.NewFileSet()
	files := walkGo(t, filepath.Join("..", ".."), true, func(path string) {
		_, waived, err := nondeterministic(fset, path, nil)
		if err != nil {
			t.Error(err)
		}
		for _, f := range waived {
			t.Error(f)
		}
	})
	if files == 0 {
		t.Fatal("audit found no Go files; is the repo root path wrong?")
	}
}

// TestDeterminismChecker shows the checker at work on planted sources.
func TestDeterminismChecker(t *testing.T) {
	cases := []struct {
		name, src string
		want      []string // substrings, one per finding
	}{
		{"wall clock", `package p
import "time"
func f() time.Time { return time.Now() }`, []string{"time.Now reads the wall clock"}},
		{"renamed import", `package p
import wall "time"
func f() { wall.Sleep(wall.Second) }`, []string{"wall.Sleep reads the wall clock"}},
		{"function value", `package p
import "time"
var now = time.Since`, []string{"time.Since reads the wall clock"}},
		{"injected clock", `package p
import "time"
type c struct{ clk interface{ Now() time.Time } }
func (c c) f() time.Duration { return c.clk.Now().Sub(c.clk.Now()) + time.Second }`, nil},
		{"waived", `package p
import "time"
func f() time.Time { return time.Now() } //acp:nondeterminism-ok the real-time clock`, nil},
		{"waiver without reason", `package p
import "time"
func f() time.Time { return time.Now() } //acp:nondeterminism-ok`, []string{"lacks a reason"}},
		{"stale waiver", `package p
func f() {} //acp:nondeterminism-ok nothing here`, []string{"covers no"}},
		{"global rand", `package p
import "math/rand"
func f() int { return rand.Intn(3) }`, []string{"rand.Intn draws from the process-global source"}},
		{"global rand v2", `package p
import "math/rand/v2"
func f() int { return rand.IntN(3) }`, []string{"rand.IntN draws"}},
		{"seeded rand", `package p
import "math/rand"
func f(seed int64) *rand.Rand { r := rand.New(rand.NewSource(seed)); r.Intn(3); return r }`, nil},
		{"dot import", `package p
import . "time"
func f() Time { return Now() }`, []string{"dot import"}},
	}
	for _, tc := range cases {
		calls, waived, err := nondeterministic(token.NewFileSet(), "p.go", tc.src)
		found := append(calls, waived...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(found) != len(tc.want) {
			t.Errorf("%s: findings %q, want %d", tc.name, found, len(tc.want))
			continue
		}
		for i, w := range tc.want {
			if !strings.Contains(found[i], w) {
				t.Errorf("%s: finding %q, want it to mention %q", tc.name, found[i], w)
			}
		}
	}
}
