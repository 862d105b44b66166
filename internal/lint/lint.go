// Package lint implements acplint, two custom static analyzers for the
// invariants no test sees break: determinism of the seeded packages (map
// order and wall clocks that no golden happens to reach), and
// atomic-access consistency on memory the race detector only flags when
// a test races it.
//
// The analyzer model mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) but is built on the standard library alone: the
// container has no module cache or network, so x/tools cannot be a
// dependency. Analyzers here are intraprocedural and need only parsed
// files plus go/types information, which the stdlib provides.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Analyzer describes one static check, mirroring the x/tools analysis
// framework's type of the same name.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and command lines.
	Name string
	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass provides one analyzer run with a single type-checked package and
// a sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	notes map[*ast.File]*fileNotes
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, Atomic}
}

// ---------------------------------------------------------------------------
// acp:* annotations
//
// Waivers are ordinary line comments:
//
//	//acp:nondeterminism-ok <why>      waive a determinism finding
//	//acp:atomic-ok <why>              waive an atomic-consistency finding
//
// A waiver applies when it sits on the offending line, on the line
// directly above it, or in the enclosing function's doc comment. Every
// waiver requires a non-empty justification.

var annotationRe = regexp.MustCompile(`acp:([a-z-]+)(?:\s+(.*))?`)

type annotation struct {
	name    string
	reason  string
	present bool
}

// parseAnnotation extracts an acp:<name> annotation from comment text.
// The justification stops at a nested "//" so that trailing comments
// (like the test fixtures' // want markers) are not read as a reason.
func parseAnnotation(text string) (annotation, bool) {
	m := annotationRe.FindStringSubmatch(text)
	if m == nil {
		return annotation{}, false
	}
	reason := m[2]
	if i := strings.Index(reason, "//"); i >= 0 {
		reason = reason[:i]
	}
	return annotation{name: m[1], reason: strings.TrimSpace(reason), present: true}, true
}

type fileNotes struct {
	// byLine maps a source line to the acp: annotations on it.
	byLine map[int][]annotation
}

func (p *Pass) fileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

func (p *Pass) notesFor(f *ast.File) *fileNotes {
	if p.notes == nil {
		p.notes = make(map[*ast.File]*fileNotes)
	}
	if n, ok := p.notes[f]; ok {
		return n
	}
	n := &fileNotes{byLine: make(map[int][]annotation)}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimPrefix(text, "/*")
			a, ok := parseAnnotation(text)
			if !ok {
				continue
			}
			line := p.Fset.Position(c.Pos()).Line
			n.byLine[line] = append(n.byLine[line], a)
		}
	}
	p.notes[f] = n
	return n
}

// annotationAt looks for an acp:<name> annotation covering pos: on the
// same line, on the line directly above, or in the doc comment of the
// function enclosing pos.
func (p *Pass) annotationAt(pos token.Pos, name string) annotation {
	f := p.fileFor(pos)
	if f == nil {
		return annotation{}
	}
	notes := p.notesFor(f)
	line := p.Fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		for _, a := range notes.byLine[l] {
			if a.name == name {
				return a
			}
		}
	}
	if fd := enclosingFuncDecl(f, pos); fd != nil && fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if a, ok := parseAnnotation(c.Text); ok && a.name == name {
				return a
			}
		}
	}
	return annotation{}
}

// waived reports whether a finding at pos is waived by acp:<name>. A
// waiver without a justification is itself reported: the escape hatch
// must say why the code is exempt.
func (p *Pass) waived(pos token.Pos, name string) bool {
	a := p.annotationAt(pos, name)
	if !a.present {
		return false
	}
	if a.reason == "" {
		p.Reportf(pos, "acp:%s requires a justification (write //acp:%s <why>)", name, name)
		return true
	}
	return true
}

func enclosingFuncDecl(f *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// small shared AST/type helpers

// calleeObj resolves a call's callee to its types object (a *types.Func
// for ordinary and method calls), or nil.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// rootIdent returns the leftmost identifier of a selector/index chain,
// e.g. sc for sc.children[depth]. Nil when the expression is rooted in a
// call or literal.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isFloaty reports whether t is built on floating point: a float, a
// complex, or a struct any of whose fields is floaty. Accumulating such
// values in map-iteration order makes the sum run-order dependent.
func isFloaty(t types.Type) bool {
	seen := map[types.Type]bool{}
	var rec func(types.Type) bool
	rec = func(t types.Type) bool {
		if t == nil || seen[t] {
			return false
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Basic:
			return u.Info()&(types.IsFloat|types.IsComplex) != 0
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if rec(u.Field(i).Type()) {
					return true
				}
			}
		case *types.Array:
			return rec(u.Elem())
		}
		return false
	}
	return rec(t)
}

// pathInScope reports whether a package import path falls under any of
// the scope fragments (segment-aware substring match, so "internal/core"
// matches "repro/internal/core" but not "internal/corelib").
func pathInScope(path string, scope []string) bool {
	padded := "/" + path + "/"
	for _, s := range scope {
		if strings.Contains(padded, "/"+strings.Trim(s, "/")+"/") {
			return true
		}
	}
	return false
}
