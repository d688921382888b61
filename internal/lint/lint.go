// Package lint is dynamolint: a project-specific static-analysis suite
// that turns the simulator's load-bearing runtime contracts into
// compile-time contracts. Four analyzers enforce them:
//
//   - detrand: sim-deterministic packages must not read wall clocks,
//     global math/rand state, or unordered map iteration, and goroutine
//     closures must not write shared captured variables (Determinism
//     rests on byte-identical parallel/sequential runs).
//   - conserve: every integer counter on core.Result, engine.Counters
//     and engine.KVCounters must be referenced by the conservation
//     invariant suite, so new counters cannot bypass
//     CheckInvariants/CheckLaws.
//   - steadystate: functions annotated //dynamolint:steadystate (the
//     tick loop, the engine clock-event path, the KV swap path) are
//     checked against an allocation blacklist, extending the single
//     -scenario TestTickLoopAllocationFree assertion to whole paths.
//   - prodcaller: every package-level name, method and struct field
//     needs a non-test use somewhere in the module (exported names
//     under internal/, unexported names anywhere) or a
//     //dynamolint:api waiver; a field is used only where it is read.
//
// The suite is intentionally built on the standard library's go/ast +
// go/types only (see load.go): the module has zero external
// dependencies, and golang.org/x/tools/go/analysis would be its first.
// The Analyzer/Pass/Diagnostic surface below mirrors go/analysis
// closely enough that porting onto it later is mechanical.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check. It mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer so the suite can be ported to
// the real framework if the dependency ever lands.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package and
// collects the diagnostics the analyzer reports against it.
type Pass struct {
	Analyzer *Analyzer
	Config   *Config
	Fset     *token.FileSet
	Path     string // import path of the package under analysis
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags    []Diagnostic
	comments map[*ast.File]commentIndex
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Diagnostics returns the findings reported so far, in file/line order.
func (p *Pass) Diagnostics() []Diagnostic {
	sort.SliceStable(p.diags, func(i, j int) bool {
		a, b := p.diags[i].Pos, p.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return p.diags
}

// commentIndex maps source lines to the comment text that governs them:
// a comment on line N waives findings on line N and on line N+1 (i.e.
// both end-of-line and stand-alone-line waiver placement work).
type commentIndex struct {
	byLine map[int][]string
}

func (p *Pass) commentsFor(f *ast.File) commentIndex {
	if p.comments == nil {
		p.comments = make(map[*ast.File]commentIndex)
	}
	if ci, ok := p.comments[f]; ok {
		return ci
	}
	ci := commentIndex{byLine: make(map[int][]string)}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			line := p.Fset.Position(c.Pos()).Line
			ci.byLine[line] = append(ci.byLine[line], c.Text)
		}
	}
	p.comments[f] = ci
	return ci
}

// waiverAt reports whether a waiver directive with the given marker
// governs the source line holding pos — either on that line itself or on
// the line directly above it — and returns the justification text that
// follows the marker. ok is false when the marker is absent; ok true
// with empty reason means the waiver is malformed (no justification).
func (p *Pass) waiverAt(f *ast.File, pos token.Pos, marker string) (reason string, ok bool) {
	ci := p.commentsFor(f)
	line := p.Fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		for _, text := range ci.byLine[l] {
			if r, found := parseDirective(text, marker); found {
				return r, true
			}
		}
	}
	return "", false
}

// parseDirective extracts "<marker> <reason>" from one comment's text.
func parseDirective(comment, marker string) (reason string, ok bool) {
	text := strings.TrimPrefix(comment, "//")
	text = strings.TrimPrefix(text, "/*")
	text = strings.TrimSuffix(text, "*/")
	text = strings.TrimSpace(text)
	if text == marker {
		return "", true
	}
	if strings.HasPrefix(text, marker) {
		rest := text[len(marker):]
		if rest[0] == ' ' || rest[0] == '\t' || rest[0] == ':' {
			return strings.TrimSpace(strings.TrimPrefix(rest, ":")), true
		}
	}
	return "", false
}

// fileDirective reports whether any comment in the file's header (before
// or attached to the package clause, or anywhere at file scope) carries
// the marker, returning its justification.
func fileDirective(f *ast.File, marker string) (reason string, ok bool) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if r, found := parseDirective(c.Text, marker); found {
				return r, true
			}
		}
	}
	return "", false
}

// funcDirective reports whether the function's doc comment (or a comment
// in the gap right above it) carries the marker.
func (p *Pass) funcDirective(f *ast.File, fn *ast.FuncDecl, marker string) (reason string, ok bool) {
	if fn.Doc != nil {
		for _, c := range fn.Doc.List {
			if r, found := parseDirective(c.Text, marker); found {
				return r, true
			}
		}
	}
	// A detached directive line between the doc comment and the func
	// keyword still governs the function.
	return p.waiverAt(f, fn.Pos(), marker)
}

// pkgObjOf resolves an identifier to the package it names, if it is an
// import reference (e.g. the "time" in time.Now).
func pkgObjOf(info *types.Info, id *ast.Ident) *types.Package {
	if obj, ok := info.Uses[id].(*types.PkgName); ok {
		return obj.Imported()
	}
	return nil
}

// selectorCall matches expr against pkgpath.Name and returns true when
// expr is a selector onto that package member.
func isPkgSelector(info *types.Info, expr ast.Expr, pkgPath string) (member string, ok bool) {
	sel, isSel := expr.(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", false
	}
	if pkg := pkgObjOf(info, id); pkg != nil && pkg.Path() == pkgPath {
		return sel.Sel.Name, true
	}
	return "", false
}
