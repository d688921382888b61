package lint

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The analyzer tests mirror golang.org/x/tools/go/analysis/analysistest:
// each corpus under testdata/ is a self-contained package whose sources
// carry // want `regex` comments on the lines where a diagnostic must be
// reported. A test fails on any unmatched want and on any diagnostic no
// want expects, so the corpora pin both directions of every rule.

// testConfig classifies the testdata corpora the way DefaultConfig
// classifies the real module.
func testConfig() *Config {
	return &Config{
		ModulePath:    "example.com",
		Deterministic: []string{"example.com/det"},
		Wallclock:     []string{"example.com/wall"},
		Conserve: []ConserveTarget{
			{Pkg: "example.com/conserve", Struct: "Result", Invariant: "CheckInvariants"},
			{Pkg: "example.com/conserve", Struct: "Orphan", Invariant: "CheckOrphan"},
		},
	}
}

// loadTestPackage parses and type-checks testdata/<dir> as the package
// path, mirroring Loader.load for out-of-module sources.
func loadTestPackage(t *testing.T, dir, path string) *Package {
	t.Helper()
	build.Default.CgoEnabled = false
	abs := filepath.Join("testdata", dir)
	names, err := goFilesIn(abs)
	if err != nil {
		t.Fatalf("listing %s: %v", abs, err)
	}
	if len(names) == 0 {
		t.Fatalf("no Go files in %s", abs)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Pkg: tpkg, Info: info}
}

// expectation is one // want `regex` assertion at a source line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// wantArg extracts the backtick-quoted patterns of a want comment.
var wantArg = regexp.MustCompile("`([^`]*)`")

// wantsIn collects the corpus's want assertions.
func wantsIn(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				args := wantArg.FindAllStringSubmatch(text[len("want "):], -1)
				if len(args) == 0 {
					t.Fatalf("%s:%d: malformed want comment (no `pattern`): %s", pos.Filename, pos.Line, text)
				}
				for _, m := range args {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: m[1]})
				}
			}
		}
	}
	return wants
}

// runAnalyzerTest loads the corpus, runs the analyzer, and reconciles
// diagnostics against the want assertions in both directions.
func runAnalyzerTest(t *testing.T, a *Analyzer, dir, path string) {
	t.Helper()
	pkg := loadTestPackage(t, dir, path)
	pass := &Pass{
		Analyzer: a,
		Config:   testConfig(),
		Fset:     pkg.Fset,
		Path:     pkg.Path,
		Files:    pkg.Files,
		Pkg:      pkg.Pkg,
		Info:     pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s on %s: %v", a.Name, path, err)
	}
	reconcile(t, wantsIn(t, pkg), pass.Diagnostics())
}

// reconcile fails the test on any diagnostic no want expects and on any
// want no diagnostic matched.
func reconcile(t *testing.T, wants []*expectation, diags []Diagnostic) {
	t.Helper()
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: %s", d.Pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched want `%s`", w.file, w.line, w.raw)
		}
	}
}
