package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterminismScope lists the import-path fragments the determinism
// analyzer applies to. The golden parity test and the harness oracle
// assume these packages are bit-reproducible under a fixed seed, so wall
// clocks, the global math/rand state, and map-iteration-order leaks are
// correctness bugs there, not style. runtime, workload, and metrics are
// in scope because the multi-app harness replays them through its
// replica oracle and the scenario-family plans promise bit-identical
// materialisation per seed; runtime already injects rand/clock and must
// stay that way. server and obs promise virtual-clock determinism too:
// the lease reaper ticks on the injected harness clock and obs's scrape
// surface stamps snapshots from it, so a stray wall-clock read there would
// desynchronize replayed sessions. Tests may extend this to cover fixture packages.
var DeterminismScope = []string{
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

// Determinism reports nondeterminism sources in the deterministic
// packages: wall-clock time.* calls (inject harness/clock.Clock
// instead), global math/rand top-level functions (inject a seeded
// *rand.Rand), and iteration over a map whose body feeds ordered
// output — appending to a slice that is never sorted, emitting trace
// events, or accumulating floating-point sums, all of which leak
// map-iteration order into observable results.
var Determinism = &Analyzer{
	Name: "acpdeterminism",
	Doc: "forbid wall clocks, global math/rand, and ordered output from map iteration " +
		"in the deterministic packages (waive with //acp:nondeterminism-ok <why>)",
	Run: runDeterminism,
}

const ndWaiver = "nondeterminism-ok"

// wallClockFuncs are the time package entry points that read or schedule
// against the wall clock. Durations and formatting are fine.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"NewTimer": true, "NewTicker": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"Sleep": true,
}

// seededRandCtors are the math/rand package-level functions that build
// injectable generator state rather than touching the global source.
var seededRandCtors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 counterparts.
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) error {
	if !pathInScope(pass.Pkg.Path(), DeterminismScope) {
		return nil
	}
	for _, file := range pass.Files {
		// Test files are out of scope: the determinism invariant covers
		// the engine's decision paths, while test drivers legitimately
		// wait in wall time (deadlines around goroutines, the virtual
		// clock's pacing sleep). The standalone loader never sees them,
		// but `go vet -vettool` analyzes test packages too.
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkWallClockCall(pass, n)
				checkGlobalRandCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, file, n)
			}
			return true
		})
	}
	return nil
}

func checkWallClockCall(pass *Pass, call *ast.CallExpr) {
	obj := calleeObj(pass.TypesInfo, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return // time.Time/Duration methods (After, Sub, ...) are pure
	}
	if !wallClockFuncs[fn.Name()] {
		return
	}
	if pass.waived(call.Pos(), ndWaiver) {
		return
	}
	pass.Reportf(call.Pos(),
		"time.%s reads the wall clock; deterministic packages must go through an injected harness/clock.Clock (//acp:nondeterminism-ok <why> to waive)",
		fn.Name())
}

func checkGlobalRandCall(pass *Pass, call *ast.CallExpr) {
	obj := calleeObj(pass.TypesInfo, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return // methods on an injected *rand.Rand are the approved path
	}
	if seededRandCtors[fn.Name()] {
		return
	}
	if pass.waived(call.Pos(), ndWaiver) {
		return
	}
	pass.Reportf(call.Pos(),
		"rand.%s uses the process-global random source; deterministic packages must use an injected seeded *rand.Rand (//acp:nondeterminism-ok <why> to waive)",
		fn.Name())
}

// checkMapRange flags `range m` over a map whose body leaks iteration
// order into ordered output. Three leak shapes are recognised:
//
//  1. appending to a slice declared outside the loop, unless the slice
//     is later passed to a sort.* / slices.Sort* call in the same
//     function (the collect-then-sort idiom);
//  2. emitting trace events (calls on an obs tracer) from inside the
//     loop body, which serialises events in map order;
//  3. accumulating floating-point values (floats, or structs of floats
//     such as qos.Resources) into a variable that outlives the loop —
//     float addition is not associative, so the sum depends on order.
func checkMapRange(pass *Pass, file *ast.File, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if pass.waived(rng.Pos(), ndWaiver) {
		return // a waiver on the range line covers the whole loop body
	}
	rangeVars := rangeVarObjs(pass, rng)

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkRangeAssign(pass, file, rng, rangeVars, n)
		case *ast.CallExpr:
			checkRangeEmit(pass, rng, n)
		case *ast.IncDecStmt:
			// ++/-- on integers is order-independent; nothing to do.
		}
		return true
	})
}

func rangeVarObjs(pass *Pass, rng *ast.RangeStmt) map[types.Object]bool {
	out := make(map[types.Object]bool, 2)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

func checkRangeAssign(pass *Pass, file *ast.File, rng *ast.RangeStmt, rangeVars map[types.Object]bool, as *ast.AssignStmt) {
	// Appends first: x = append(x, ...) or x := append(y, ...).
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltinAppend(pass, call) || i >= len(as.Lhs) {
			continue
		}
		dest := as.Lhs[i]
		destRoot := rootIdent(dest)
		if destRoot == nil {
			continue
		}
		obj := pass.TypesInfo.ObjectOf(destRoot)
		if obj == nil || !declaredOutside(obj, rng) {
			continue // iteration-local slice; cannot leak order past the loop
		}
		if sortedAfter(pass, file, rng, obj) {
			continue
		}
		if pass.waived(as.Pos(), ndWaiver) {
			continue
		}
		pass.Reportf(as.Pos(),
			"append inside range over map leaks iteration order into %s; sort it afterwards or iterate sorted keys (//acp:nondeterminism-ok <why> to waive)",
			destRoot.Name)
		return
	}

	// Floating-point accumulation: LHS outlives the loop, RHS reads it
	// back (x = x.Add(...), x = x + h, or x += h with a floaty type).
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) && as.Tok == token.ASSIGN {
			break
		}
		root := rootIdent(lhs)
		if root == nil || root.Name == "_" {
			continue
		}
		obj := pass.TypesInfo.ObjectOf(root)
		if obj == nil || rangeVars[obj] || !declaredOutside(obj, rng) {
			continue
		}
		// Indexing by a range variable writes disjoint slots per
		// iteration; that is order-independent.
		if indexedByRangeVar(pass, lhs, rangeVars) {
			continue
		}
		t := pass.TypesInfo.TypeOf(lhs)
		if !isFloaty(t) {
			continue
		}
		accum := false
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			accum = true
		case token.ASSIGN:
			if i < len(as.Rhs) {
				accum = mentionsObj(pass, as.Rhs[i], obj)
			}
		}
		if !accum {
			continue
		}
		if pass.waived(as.Pos(), ndWaiver) {
			continue
		}
		pass.Reportf(as.Pos(),
			"floating-point accumulation into %s inside range over map makes the sum depend on iteration order; iterate sorted keys (//acp:nondeterminism-ok <why> to waive)",
			root.Name)
		return
	}
}

// checkRangeEmit flags trace-event emission in map-iteration order:
// calls to methods on a receiver type named Tracer. Only the tracer
// serialises events; other obs types (counters, gauges, snapshot
// readers) commute or write into keyed maps, so calling them under a
// map range is order-independent — obs itself is in scope and its
// Registry.Snapshot loops must stay clean without waivers.
func checkRangeEmit(pass *Pass, rng *ast.RangeStmt, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return
	}
	if named.Obj().Name() != "Tracer" {
		return
	}
	if pass.waived(call.Pos(), ndWaiver) {
		return
	}
	pass.Reportf(call.Pos(),
		"trace event %s.%s emitted inside range over map serialises events in iteration order; iterate sorted keys (//acp:nondeterminism-ok <why> to waive)",
		named.Obj().Name(), fn.Name())
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func declaredOutside(obj types.Object, n ast.Node) bool {
	return obj.Pos() < n.Pos() || obj.Pos() > n.End()
}

func indexedByRangeVar(pass *Pass, lhs ast.Expr, rangeVars map[types.Object]bool) bool {
	found := false
	ast.Inspect(lhs, func(n ast.Node) bool {
		ix, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		ast.Inspect(ix.Index, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil && rangeVars[obj] {
					found = true
				}
			}
			return true
		})
		return true
	})
	return found
}

func mentionsObj(pass *Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			found = true
		}
		return true
	})
	return found
}

// sortedAfter reports whether, after the range statement, the enclosing
// function passes obj to a sorting call: sort.Slice/Sort/Ints/Strings/
// SliceStable/..., or slices.Sort/SortFunc/SortStableFunc. That is the
// deterministic collect-then-sort idiom and must not be flagged.
func sortedAfter(pass *Pass, file *ast.File, rng *ast.RangeStmt, obj types.Object) bool {
	fd := enclosingFuncDecl(file, rng.Pos())
	if fd == nil {
		return false
	}
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn, ok := calleeObj(pass.TypesInfo, call).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		pkg := fn.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if root := rootIdent(arg); root != nil && pass.TypesInfo.ObjectOf(root) == obj {
				sorted = true
			}
		}
		return true
	})
	return sorted
}
