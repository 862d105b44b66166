package lint

import (
	"go/ast"
	"go/types"
)

// Hotpath enforces source-level allocation hygiene on functions opted in
// with //acp:hotpath in their doc comment. It complements the runtime
// AllocsPerRun guards: the benchmarks catch a regression's symptom at
// bench time, the analyzer names the offending construct at review time.
//
// Flagged constructs: fmt.* calls (interface boxing plus formatting
// buffers), closures that capture local variables, append to a slice
// that is not scratch-derived, &T{...} / new(T), non-constant string
// concatenation, and implicit boxing of value types into interfaces.
// Amortised growth (make under a capacity check) is deliberately not
// flagged — that is exactly how the walk scratch buffers work.
var Hotpath = &Analyzer{
	Name: "acphotpath",
	Doc: "flag allocation-causing constructs in //acp:hotpath functions " +
		"(waive a finding with //acp:alloc-ok <why>)",
	Run: runHotpath,
}

const allocWaiver = "alloc-ok"

func runHotpath(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcHasAnnotation(fd, "hotpath") {
				continue
			}
			checkHotpathFunc(pass, fd)
		}
	}
	return nil
}

func checkHotpathFunc(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, fd, n)
		case *ast.FuncLit:
			checkClosureCapture(pass, fd, n)
			return false // the closure body runs under its own budget
		case *ast.UnaryExpr:
			checkCompositeAddr(pass, n)
		case *ast.BinaryExpr:
			checkStringConcat(pass, n)
		case *ast.AssignStmt:
			checkHotAssign(pass, fd, n)
		case *ast.ReturnStmt:
			checkHotReturn(pass, fd, n)
		}
		return true
	})
}

func checkHotCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	// fmt.* always allocates: variadic interface boxing at minimum.
	if fn, ok := calleeObj(pass.TypesInfo, call).(*types.Func); ok &&
		fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		if !pass.waived(call.Pos(), allocWaiver) {
			pass.Reportf(call.Pos(),
				"fmt.%s allocates (interface boxing and formatting buffers) on the hot path (//acp:alloc-ok <why> to waive)",
				fn.Name())
		}
		return
	}

	// new(T) allocates.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "new":
				if !pass.waived(call.Pos(), allocWaiver) {
					pass.Reportf(call.Pos(), "new(...) allocates on the hot path (//acp:alloc-ok <why> to waive)")
				}
			case "append":
				checkHotAppend(pass, fd, call)
			}
			return
		}
	}

	// Conversions to interface types box their operand.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			checkBoxing(pass, tv.Type, call.Args[0])
		}
		return
	}

	// Ordinary calls: arguments implicitly converted to interface
	// parameters box their values.
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= sig.Params().Len()-1 {
			last := sig.Params().At(sig.Params().Len() - 1).Type()
			if s, ok := last.(*types.Slice); ok {
				pt = s.Elem()
			}
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice, no per-element boxing
			}
		} else if i < sig.Params().Len() {
			pt = sig.Params().At(i).Type()
		}
		if pt != nil && types.IsInterface(pt) {
			checkBoxing(pass, pt, arg)
		}
	}
}

// checkBoxing reports when storing arg into an interface-typed slot
// heap-allocates: any value wider than a pointer word (strings, slices,
// structs, large ints/floats) must be boxed. Pointer-shaped values
// (pointers, maps, chans, funcs, unsafe.Pointer) and nil do not allocate.
func checkBoxing(pass *Pass, target types.Type, arg ast.Expr) {
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsNil() {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return
	case *types.Basic:
		if tv.Type.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return
		}
	}
	if pass.waived(arg.Pos(), allocWaiver) {
		return
	}
	pass.Reportf(arg.Pos(),
		"value of type %s boxed into %s allocates on the hot path (//acp:alloc-ok <why> to waive)",
		types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)),
		types.TypeString(target, types.RelativeTo(pass.Pkg)))
}

// checkClosureCapture flags func literals that capture function-local
// variables: the captured variables (and usually the closure itself)
// escape to the heap. Closures over package-level state compile to a
// static closure and are fine.
func checkClosureCapture(pass *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) {
	var captured *ast.Ident
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured iff declared in the enclosing function but outside
		// the literal itself.
		if v.Pos() >= fd.Pos() && v.Pos() <= fd.End() &&
			(v.Pos() < lit.Pos() || v.Pos() > lit.End()) {
			captured = id
		}
		return true
	})
	if captured == nil {
		return
	}
	if pass.waived(lit.Pos(), allocWaiver) {
		return
	}
	pass.Reportf(lit.Pos(),
		"closure captures %s; captured locals escape to the heap on the hot path (//acp:alloc-ok <why> to waive)",
		captured.Name)
}

func checkCompositeAddr(pass *Pass, ue *ast.UnaryExpr) {
	// token.AND of a composite literal: &T{...} heap-allocates when it
	// escapes; on a hot path that is the way to bet.
	if ue.Op.String() != "&" {
		return
	}
	if _, ok := ast.Unparen(ue.X).(*ast.CompositeLit); !ok {
		return
	}
	if pass.waived(ue.Pos(), allocWaiver) {
		return
	}
	pass.Reportf(ue.Pos(), "&composite literal allocates on the hot path (//acp:alloc-ok <why> to waive)")
}

func checkStringConcat(pass *Pass, be *ast.BinaryExpr) {
	if be.Op.String() != "+" {
		return
	}
	tv, ok := pass.TypesInfo.Types[be]
	if !ok || tv.Type == nil {
		return
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
		return
	}
	if tv.Value != nil {
		return // constant-folded at compile time
	}
	if pass.waived(be.Pos(), allocWaiver) {
		return
	}
	pass.Reportf(be.Pos(), "string concatenation allocates on the hot path (//acp:alloc-ok <why> to waive)")
}

// checkHotAppend allows appends only to scratch-derived destinations:
// a field chain (sc.bestComps, sc.preds[i]), a parameter-rooted slice, or a
// local whose declaration derives from one of those. A local declared
// with make/literal/var grows a fresh backing array per call.
func checkHotAppend(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	dest := ast.Unparen(call.Args[0])
	if scratchDerived(pass, fd, dest, 0) {
		return
	}
	if pass.waived(call.Pos(), allocWaiver) {
		return
	}
	pass.Reportf(call.Pos(),
		"append to non-scratch destination %s may grow a fresh backing array per call on the hot path (//acp:alloc-ok <why> to waive)",
		types.ExprString(dest))
}

// scratchDerived reports whether e is rooted in persistent storage: a
// selector (struct field), an index into one, a function parameter or
// receiver, or a local variable whose initialiser is itself
// scratch-derived (children := sc.children[depth][:0]).
func scratchDerived(pass *Pass, fd *ast.FuncDecl, e ast.Expr, depth int) bool {
	if depth > 10 {
		return false
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return scratchDerived(pass, fd, x.X, depth+1)
	case *ast.SliceExpr:
		return scratchDerived(pass, fd, x.X, depth+1)
	case *ast.StarExpr:
		return scratchDerived(pass, fd, x.X, depth+1)
	case *ast.CallExpr:
		// append(sc.sel[:0], ...) pipes the scratch through.
		if isBuiltinAppend(pass, x) && len(x.Args) > 0 {
			return scratchDerived(pass, fd, x.Args[0], depth+1)
		}
		return false
	case *ast.Ident:
		v, ok := pass.TypesInfo.ObjectOf(x).(*types.Var)
		if !ok {
			return false
		}
		if isParamOrRecv(pass, fd, v) {
			return true
		}
		if init := localInitExpr(pass, fd, v); init != nil {
			return scratchDerived(pass, fd, init, depth+1)
		}
		return false
	}
	return false
}

func isParamOrRecv(pass *Pass, fd *ast.FuncDecl, v *types.Var) bool {
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if pass.TypesInfo.ObjectOf(name) == v {
					return true
				}
			}
		}
		return false
	}
	return check(fd.Recv) || check(fd.Type.Params) || check(fd.Type.Results)
}

// localInitExpr finds the expression a local variable derives from: its
// first binding whose right-hand side does not mention the variable
// itself. Self-extending rebinds (out = append(out, v)) preserve the
// original derivation — out := sc.selected[:0] stays scratch no matter
// how many times it is re-appended.
func localInitExpr(pass *Pass, fd *ast.FuncDecl, v *types.Var) ast.Expr {
	var init ast.Expr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if init != nil {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			if pass.TypesInfo.ObjectOf(id) == v && !mentionsObj(pass, as.Rhs[i], v) {
				init = as.Rhs[i]
			}
		}
		return true
	})
	return init
}

func checkHotAssign(pass *Pass, fd *ast.FuncDecl, as *ast.AssignStmt) {
	// Implicit boxing through assignment to an interface-typed LHS.
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := pass.TypesInfo.TypeOf(lhs)
		if lt == nil || !types.IsInterface(lt) {
			continue
		}
		checkBoxing(pass, lt, as.Rhs[i])
	}
}

func checkHotReturn(pass *Pass, fd *ast.FuncDecl, ret *ast.ReturnStmt) {
	results := fd.Type.Results
	if results == nil {
		return
	}
	var resultTypes []types.Type
	for _, f := range results.List {
		t := pass.TypesInfo.TypeOf(f.Type)
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for j := 0; j < n; j++ {
			resultTypes = append(resultTypes, t)
		}
	}
	if len(ret.Results) != len(resultTypes) {
		return // naked return or multi-value forwarding
	}
	for i, r := range ret.Results {
		if resultTypes[i] != nil && types.IsInterface(resultTypes[i]) {
			checkBoxing(pass, resultTypes[i], r)
		}
	}
}
