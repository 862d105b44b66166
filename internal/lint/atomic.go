package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Atomic enforces access consistency on atomically-updated memory: a
// struct field or package-level variable that is ever passed to a
// sync/atomic function must never be read or written plainly. Mixed
// access is a data race even when it "only" reads — the race detector
// flags it, and on 32-bit targets a torn 64-bit read is silently wrong.
// The analyzer also computes 32-bit (GOARCH=386) struct layouts and
// reports 64-bit atomic fields that land on a non-8-byte-aligned
// offset, which panics at runtime on 32-bit platforms (the classic
// "first word of the struct" rule).
//
// Sanctioned accesses: arguments of sync/atomic calls, taking the
// address of the location (it feeds an atomic call elsewhere), and any
// access rooted at a non-pointer local — a value copy (snapshot
// structs, value-receiver methods on a Counters copy) is private by
// construction. Typed atomics (atomic.Int64 and friends) are always
// fine: the type system already forbids plain access and the compiler
// aligns them. Test files are skipped; races there are the race
// detector's job. Waive with //acp:atomic-ok <why>.
var Atomic = &Analyzer{
	Name: "acpatomic",
	Doc: "forbid plain reads/writes of fields accessed via sync/atomic and check " +
		"64-bit atomic fields for 32-bit struct alignment (waive with //acp:atomic-ok <why>)",
	Run: runAtomic,
}

const atomicWaiver = "atomic-ok"

type atomicClassKind int

const (
	atomicDirect atomicClassKind = iota // the location itself: &x.f, &pkgVar
	atomicElem                          // an element of a slice/array field: &x.f[i]
)

type atomicClass struct {
	kind atomicClassKind
	name string
}

type atomicChecker struct {
	pass    *Pass
	classes map[types.Object]atomicClass
	// sanctioned spans: the location argument of each sync/atomic call.
	spans map[*ast.File][]posSpan
}

type posSpan struct {
	from, to token.Pos
}

func runAtomic(pass *Pass) error {
	ac := &atomicChecker{
		pass:    pass,
		classes: map[types.Object]atomicClass{},
		spans:   map[*ast.File][]posSpan{},
	}
	for _, file := range pass.Files {
		if atomicSkipFile(pass, file) {
			continue
		}
		ac.collect(file)
	}
	if len(ac.classes) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		if atomicSkipFile(pass, file) {
			continue
		}
		ac.checkFile(file)
	}
	ac.checkAlignment()
	return nil
}

func atomicSkipFile(pass *Pass, file *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go")
}

// collect registers the atomic classes and sanctioned spans of one file.
func (ac *atomicChecker) collect(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isSyncAtomicCall(ac.pass.TypesInfo, call) || len(call.Args) == 0 {
			return true
		}
		loc := ast.Unparen(call.Args[0])
		ac.spans[file] = append(ac.spans[file], posSpan{from: loc.Pos(), to: loc.End()})
		addr, ok := loc.(*ast.UnaryExpr)
		if !ok || addr.Op != token.AND {
			return true
		}
		target := ast.Unparen(addr.X)
		kind := atomicDirect
		if idx, ok := target.(*ast.IndexExpr); ok {
			kind = atomicElem
			target = ast.Unparen(idx.X)
		}
		obj, name := atomicTargetClass(ac.pass, target)
		if obj == nil {
			return true
		}
		if kind == atomicElem {
			name += "[i]"
		}
		if _, ok := ac.classes[obj]; !ok {
			ac.classes[obj] = atomicClass{kind: kind, name: name}
		}
		return true
	})
}

// atomicTargetClass resolves the location under & to a trackable class:
// a struct field or a package-level variable. Function-local atomics
// (a local counter joined before the final read) are not tracked — the
// join makes the plain read safe, and the race detector owns the rest.
func atomicTargetClass(pass *Pass, target ast.Expr) (types.Object, string) {
	switch t := target.(type) {
	case *ast.SelectorExpr:
		v, ok := pass.TypesInfo.Uses[t.Sel].(*types.Var)
		if !ok {
			return nil, ""
		}
		name := v.Name()
		if sel, ok := pass.TypesInfo.Selections[t]; ok {
			if named, ok := derefType(sel.Recv()).(*types.Named); ok {
				name = named.Obj().Name() + "." + name
			}
		}
		return v, name
	case *ast.Ident:
		v, ok := pass.TypesInfo.Uses[t].(*types.Var)
		if !ok || v.IsField() {
			return nil, ""
		}
		if v.Parent() != pass.Pkg.Scope() {
			return nil, "" // local: a join protects the final plain read
		}
		return v, v.Name()
	}
	return nil, ""
}

// isSyncAtomicCall matches package-level sync/atomic functions
// (AddInt64, LoadUint32, CompareAndSwapInt64, ...). Typed-atomic
// methods are deliberately not matched: their fields cannot be accessed
// plainly in the first place.
func isSyncAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := calleeObj(info, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	return fn.Type().(*types.Signature).Recv() == nil
}

func (ac *atomicChecker) checkFile(file *ast.File) {
	writes := map[ast.Node]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				writes[ast.Unparen(lhs)] = true
			}
		case *ast.IncDecStmt:
			writes[ast.Unparen(n.X)] = true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				// Taking the address feeds an atomic call (directly or via
				// a helper); the call sites are checked, not the aliasing.
				return false
			}
		case *ast.SelectorExpr:
			ac.checkAccess(file, n, n.Sel.Pos(), atomicDirect, writes[n])
		case *ast.IndexExpr:
			if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
				ac.checkAccess(file, sel, n.Pos(), atomicElem, writes[n])
			} else if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				ac.checkIdentAccess(file, id, n.Pos(), atomicElem, writes[n])
			}
		case *ast.Ident:
			ac.checkIdentAccess(file, n, n.Pos(), atomicDirect, writes[n])
		}
		return true
	})
}

func (ac *atomicChecker) checkAccess(file *ast.File, sel *ast.SelectorExpr, pos token.Pos, as atomicClassKind, isWrite bool) {
	obj, ok := ac.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok {
		return
	}
	ac.checkObj(file, sel, obj, pos, as, isWrite)
}

func (ac *atomicChecker) checkIdentAccess(file *ast.File, id *ast.Ident, pos token.Pos, as atomicClassKind, isWrite bool) {
	obj, ok := ac.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || obj.IsField() {
		return
	}
	ac.checkObj(file, id, obj, pos, as, isWrite)
}

func (ac *atomicChecker) checkObj(file *ast.File, e ast.Expr, obj *types.Var, pos token.Pos, as atomicClassKind, isWrite bool) {
	cls, ok := ac.classes[obj]
	if !ok || cls.kind != as {
		return
	}
	for _, sp := range ac.spans[file] {
		if sp.from <= pos && pos < sp.to {
			return
		}
	}
	if valueCopyRooted(ac.pass, e) {
		return
	}
	if ac.pass.waived(pos, atomicWaiver) {
		return
	}
	access, fix := "read plainly", "atomic.Load"
	if isWrite {
		access, fix = "written plainly", "atomic.Store/Add"
	}
	ac.pass.Reportf(pos,
		"%s is accessed with sync/atomic elsewhere but %s here; use %s or a typed atomic — mixed access is a data race (//acp:atomic-ok <why> to waive)",
		cls.name, access, fix)
}

// valueCopyRooted reports whether the access chain is rooted at a
// non-pointer function-local variable: a private value copy, not the
// shared instance.
func valueCopyRooted(pass *Pass, e ast.Expr) bool {
	root := rootIdent(e)
	if root == nil {
		return false
	}
	v, ok := pass.TypesInfo.ObjectOf(root).(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	if v.Parent() == pass.Pkg.Scope() {
		return false // package-level: shared
	}
	if _, ok := v.Type().Underlying().(*types.Pointer); ok {
		return false
	}
	return true
}

// checkAlignment computes GOARCH=386 struct layouts and flags 64-bit
// atomic fields at non-8-byte offsets: sync/atomic on int64/uint64
// panics on 32-bit platforms unless the value is 8-byte aligned.
func (ac *atomicChecker) checkAlignment() {
	sizes := types.SizesFor("gc", "386")
	if sizes == nil {
		return
	}
	scope := ac.pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		fields := make([]*types.Var, st.NumFields())
		for i := range fields {
			fields[i] = st.Field(i)
		}
		if len(fields) == 0 {
			continue
		}
		offsets := sizes.Offsetsof(fields)
		for i, f := range fields {
			cls, ok := ac.classes[f]
			if !ok || cls.kind != atomicDirect || !is64BitBasic(f.Type()) {
				continue
			}
			if offsets[i]%8 == 0 {
				continue
			}
			if ac.pass.waived(f.Pos(), atomicWaiver) {
				continue
			}
			ac.pass.Reportf(f.Pos(),
				"64-bit atomic field %s sits at offset %d of %s on 32-bit targets; sync/atomic requires 8-byte alignment — move it to the front or use atomic.Int64 (//acp:atomic-ok <why> to waive)",
				cls.name, offsets[i], tn.Name())
		}
	}
}

func is64BitBasic(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Int64, types.Uint64:
		return true
	}
	return false
}

func derefType(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
