package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HoldPair checks that transient-resource holds are paired with a
// release or rollback on every failure path. A call to HoldNode* /
// HoldLink* creates a hold that is supposed to outlive the function on
// success (the deputy releases it after the decision) — but on a failure
// exit (`continue` to the next candidate, or a return whose results say
// "failed": a literal false or a non-nil error) every hold the current
// attempt created must have been released first. This is exactly the
// shape of the PR 4 extendProbe partial-hold leak: a candidate that
// failed its link holds kept its node hold until the owner-level release,
// squatting on capacity that concurrent requests were raw-checked
// against.
//
// The analysis is flow-sensitive over the function body: it tracks the
// set of possibly-outstanding hold sites along each path, refines the
// set through branches on the ok/created results of tracked hold calls,
// and treats ReleaseNodeHold / ReleaseLinkHold / ReleaseOwner /
// Rollback* calls (including deferred ones) as discharging holds of the
// matching kind. Loop bodies are analysed once per entry state; holds
// that survive a full iteration are deliberately considered settled —
// sibling probes keep their reservations by design.
var HoldPair = &Analyzer{
	Name: "acpholdpair",
	Doc: "require every failure path after a HoldNode*/HoldLink* call to release or " +
		"roll back the holds it created (waive with //acp:holdpair-ok <why>)",
	Run: runHoldPair,
}

const holdWaiver = "holdpair-ok"

type holdKind int

const (
	holdNode holdKind = iota
	holdLink
)

// holdSite is one Hold* call site in a function.
type holdSite struct {
	id   int
	kind holdKind
	pos  token.Pos
	name string
}

type holdRole int

const (
	roleOK holdRole = iota
	roleCreated
)

// holdState is the abstract state at one program point: which hold
// sites may have outstanding (unreleased) holds, which boolean
// variables refine which site, and which kinds a deferred release
// already covers at every later exit.
type holdState struct {
	outstanding map[int]bool
	roles       map[types.Object]roleBinding
	deferred    map[holdKind]bool
}

type roleBinding struct {
	site int
	role holdRole
}

func newHoldState() *holdState {
	return &holdState{
		outstanding: map[int]bool{},
		roles:       map[types.Object]roleBinding{},
		deferred:    map[holdKind]bool{},
	}
}

func (s *holdState) clone() *holdState {
	c := newHoldState()
	for k, v := range s.outstanding {
		c.outstanding[k] = v
	}
	for k, v := range s.roles {
		c.roles[k] = v
	}
	for k, v := range s.deferred {
		c.deferred[k] = v
	}
	return c
}

// join folds other into s: a site is outstanding if it may be
// outstanding on either path; a deferred release holds only if both
// paths registered it.
func (s *holdState) join(other *holdState) {
	for k, v := range other.outstanding {
		if v {
			s.outstanding[k] = true
		}
	}
	for k, v := range other.roles {
		if _, ok := s.roles[k]; !ok {
			s.roles[k] = v
		}
	}
	for k := range s.deferred {
		if !other.deferred[k] {
			delete(s.deferred, k)
		}
	}
}

// holdChecker runs the analysis over one function.
type holdChecker struct {
	pass  *Pass
	fd    *ast.FuncDecl
	sites []*holdSite
	// sitesByCall maps a Hold* CallExpr to its site.
	sitesByCall map[*ast.CallExpr]*holdSite
}

func runHoldPair(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasPrefix(fd.Name.Name, "Hold") || strings.HasPrefix(fd.Name.Name, "Release") {
				continue // the ledger's own implementation wrappers
			}
			if !containsHoldCall(pass, fd) {
				continue
			}
			if funcHasAnnotation(fd, holdWaiver) {
				continue
			}
			hc := &holdChecker{pass: pass, fd: fd, sitesByCall: map[*ast.CallExpr]*holdSite{}}
			hc.check()
		}
	}
	return nil
}

func containsHoldCall(pass *Pass, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, ok := holdCallKind(call); ok {
				found = true
			}
		}
		return !found
	})
	return found
}

// holdCallKind classifies a call as a node or link hold by callee name.
func holdCallKind(call *ast.CallExpr) (holdKind, bool) {
	name := calleeName(call)
	switch {
	case strings.HasPrefix(name, "HoldNode"):
		return holdNode, true
	case strings.HasPrefix(name, "HoldLink"):
		return holdLink, true
	}
	return 0, false
}

// releaseKinds classifies a call as a release/rollback and returns the
// kinds it discharges.
func releaseKinds(call *ast.CallExpr) []holdKind {
	name := calleeName(call)
	switch {
	case strings.HasPrefix(name, "ReleaseNodeHold"):
		return []holdKind{holdNode}
	case strings.HasPrefix(name, "ReleaseLinkHold"):
		return []holdKind{holdLink}
	case strings.HasPrefix(name, "ReleaseOwner"), strings.HasPrefix(name, "releaseOwner"),
		strings.Contains(name, "Rollback"), strings.Contains(name, "rollback"),
		strings.HasPrefix(name, "ReleaseHolds"), strings.HasPrefix(name, "releaseHolds"):
		return []holdKind{holdNode, holdLink}
	}
	return nil
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// check runs the forward dataflow over the function's CFG (see cfg.go).
// The abstract domain is *holdState; branch-condition refinement, the
// failure-return check, and the continue check plug in as hooks.
func (hc *holdChecker) check() {
	runFlow(buildCFG(hc.fd.Body), newHoldState(), flowHooks[*holdState]{
		clone: (*holdState).clone,
		join: func(dst, src *holdState) *holdState {
			dst.join(src)
			return dst
		},
		transfer: hc.transfer,
		refine:   hc.refine,
		onReturn: func(ret *ast.ReturnStmt, state *holdState) {
			if hc.isFailureReturn(ret) {
				hc.reportLeaks(ret.Pos(), "failure return", state)
			}
		},
		onBranch: func(br *ast.BranchStmt, state *holdState) {
			if br.Tok == token.CONTINUE {
				// Abandoning the current candidate/iteration with holds the
				// iteration created and never released. Holds that were
				// created before this loop began (surviving siblings from an
				// earlier phase) are kept by design and not charged here.
				hc.reportLeaksWithin(br.Pos(), "continue", state, enclosingLoop(hc.fd, br.Pos()))
			}
		},
	})
}

// site registers (or returns) the hold site for a call.
func (hc *holdChecker) site(call *ast.CallExpr, kind holdKind) *holdSite {
	if s, ok := hc.sitesByCall[call]; ok {
		return s
	}
	s := &holdSite{id: len(hc.sites), kind: kind, pos: call.Pos(), name: calleeName(call)}
	hc.sites = append(hc.sites, s)
	hc.sitesByCall[call] = s
	return s
}

// scanExpr walks an expression, registering hold sites (marking them
// outstanding) and applying releases, in evaluation order.
func (hc *holdChecker) scanExpr(e ast.Expr, state *holdState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if kind, ok := holdCallKind(call); ok {
			s := hc.site(call, kind)
			state.outstanding[s.id] = true
		}
		if kinds := releaseKinds(call); kinds != nil {
			hc.applyRelease(state, kinds)
		}
		return true
	})
}

func (hc *holdChecker) applyRelease(state *holdState, kinds []holdKind) {
	for _, k := range kinds {
		for id := range state.outstanding {
			if hc.sites[id].kind == k {
				delete(state.outstanding, id)
			}
		}
	}
}

// refine narrows state assuming cond evaluated to val. Handles:
// ok-variable (true means the hold may exist, false means it does not),
// created-variable (true means this call created it), !expr, direct
// Hold* calls in the condition, and && chains.
func (hc *holdChecker) refine(cond ast.Expr, val bool, state *holdState) {
	switch c := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			hc.refine(c.X, !val, state)
		}
	case *ast.BinaryExpr:
		if c.Op == token.LAND && val {
			hc.refine(c.X, true, state)
			hc.refine(c.Y, true, state)
		}
		if c.Op == token.LOR && !val {
			hc.refine(c.X, false, state)
			hc.refine(c.Y, false, state)
		}
	case *ast.Ident:
		obj := hc.pass.TypesInfo.ObjectOf(c)
		if obj == nil {
			return
		}
		if b, ok := state.roles[obj]; ok && !val {
			// ok == false means nothing was created; created == false
			// means an idempotent no-op (a sibling's hold, not ours).
			delete(state.outstanding, b.site)
		}
	case *ast.CallExpr:
		if _, ok := holdCallKind(c); ok && !val {
			if s, ok := hc.sitesByCall[c]; ok {
				delete(state.outstanding, s.id)
			}
		}
	}
}

// transfer interprets one CFG node (a statement or a branch-condition
// expression), mutating state in place. Structured control flow
// (branching, joining, loop policy) lives in the CFG; only straight-line
// effects are handled here.
func (hc *holdChecker) transfer(n ast.Node, state *holdState) {
	switch n := n.(type) {
	case *ast.ExprStmt:
		hc.scanExpr(n.X, state)
	case *ast.AssignStmt:
		hc.assign(n, state)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						hc.scanExpr(v, state)
					}
				}
			}
		}
	case *ast.DeferStmt:
		// A deferred release covers every subsequent exit. Inspect visits
		// the deferred call itself as well as calls nested in its args.
		ast.Inspect(n.Call, func(nn ast.Node) bool {
			if call, ok := nn.(*ast.CallExpr); ok {
				if kinds := releaseKinds(call); kinds != nil {
					hc.applyRelease(state, kinds)
					for _, k := range kinds {
						state.deferred[k] = true
					}
				}
			}
			return true
		})
	case *ast.GoStmt:
		hc.scanExpr(n.Call, state)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			hc.scanExpr(r, state)
		}
	case *ast.IncDecStmt, *ast.EmptyStmt, *ast.BranchStmt, *ast.SendStmt:
		// No hold/release effects; break and continue are observed by the
		// onBranch hook, and the CFG's joins over-approximate their flow.
	case ast.Expr:
		hc.scanExpr(n, state)
	}
}

func (hc *holdChecker) assign(as *ast.AssignStmt, state *holdState) {
	// Results of a hold call bind ok/created roles:
	//   ok := l.HoldNode(...)                    ok
	//   ok, created := l.HoldNodeTrackedAt(...)  ok, created
	if len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			if kind, isHold := holdCallKind(call); isHold {
				s := hc.site(call, kind)
				state.outstanding[s.id] = true
				roles := []holdRole{roleOK, roleCreated}
				for i, lhs := range as.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok || id.Name == "_" || i >= len(roles) {
						continue
					}
					if obj := hc.pass.TypesInfo.ObjectOf(id); obj != nil {
						state.roles[obj] = roleBinding{site: s.id, role: roles[i]}
					}
				}
				// Release calls nested in args (unusual) still apply.
				for _, arg := range call.Args {
					hc.scanExpr(arg, state)
				}
				return
			}
		}
	}
	for _, r := range as.Rhs {
		hc.scanExpr(r, state)
	}
	// Reassigning a role variable to anything else drops the binding.
	for _, lhs := range as.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if obj := hc.pass.TypesInfo.ObjectOf(id); obj != nil {
				if _, bound := state.roles[obj]; bound {
					delete(state.roles, obj)
				}
			}
		}
	}
}

// isFailureReturn reports whether the return signals failure: any result
// is the constant false, or an error-typed expression that is not nil.
func (hc *holdChecker) isFailureReturn(ret *ast.ReturnStmt) bool {
	for _, r := range ret.Results {
		tv, ok := hc.pass.TypesInfo.Types[r]
		if !ok {
			continue
		}
		if tv.Value != nil && tv.Value.Kind() == constant.Bool && !constant.BoolVal(tv.Value) {
			return true
		}
		if tv.Type != nil && !tv.IsNil() && isErrorType(tv.Type) {
			if id, ok := ast.Unparen(r).(*ast.Ident); ok && id.Name == "nil" {
				continue
			}
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == "Error" {
			return true
		}
	}
	return false
}

// enclosingLoop returns the innermost for/range statement containing pos.
func enclosingLoop(fd *ast.FuncDecl, pos token.Pos) ast.Node {
	var loop ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if n.Pos() <= pos && pos <= n.End() {
				loop = n // keep innermost: later matches are nested deeper
			}
		}
		return true
	})
	return loop
}

func (hc *holdChecker) reportLeaks(pos token.Pos, exit string, state *holdState) {
	hc.reportLeaksWithin(pos, exit, state, nil)
}

// reportLeaksWithin reports outstanding holds at an exit; when within is
// non-nil only hold sites lexically inside it are charged.
func (hc *holdChecker) reportLeaksWithin(pos token.Pos, exit string, state *holdState, within ast.Node) {
	if len(state.outstanding) == 0 {
		return
	}
	var leaked []*holdSite
	for id := range state.outstanding {
		s := hc.sites[id]
		if state.deferred[s.kind] {
			continue
		}
		if within != nil && (s.pos < within.Pos() || s.pos > within.End()) {
			continue
		}
		leaked = append(leaked, s)
	}
	if len(leaked) == 0 {
		return
	}
	sort.Slice(leaked, func(i, j int) bool { return leaked[i].pos < leaked[j].pos })
	if hc.pass.waived(pos, holdWaiver) {
		return
	}
	first := hc.pass.Fset.Position(leaked[0].pos)
	extra := ""
	if len(leaked) > 1 {
		extra = " (and more)"
	}
	pass := hc.pass
	pass.Reportf(pos,
		"%s may leak the hold created by %s at line %d%s; release or roll back every hold this attempt created before abandoning it (//acp:holdpair-ok <why> to waive)",
		exit, leaked[0].name, first.Line, extra)
	// Report once per exit: clearing the reported sites avoids cascading
	// duplicates when the same state flows to a later join.
	for _, s := range leaked {
		delete(state.outstanding, s.id)
	}
}
