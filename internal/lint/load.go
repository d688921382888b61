package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one type-checked package of the module under analysis.
type Package struct {
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File // non-test files, file-name order
	Pkg   *types.Package
	Info  *types.Info
}

// Loader parses and type-checks module packages from source. Standard
// library imports are resolved by the compiler-independent "source"
// importer (works offline, needs only GOROOT/src); intra-module imports
// are resolved recursively by the loader itself, so the whole module
// type-checks without export data, a build cache, or network access.
type Loader struct {
	ModuleRoot string // absolute path of the module root directory
	ModulePath string // module import path ("dynamollm")

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package
	busy map[string]bool
}

// NewLoader returns a loader for the module rooted at root.
func NewLoader(root, modulePath string) *Loader {
	// The source importer consults go/build's default context; cgo
	// packages (net, os/user) must resolve to their pure-Go fallbacks.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modulePath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		busy:       make(map[string]bool),
	}
}

// Import implements types.Importer over both module and stdlib paths.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.Import(path)
}

// dirFor maps an import path to its directory under the module root.
func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
}

// pathFor maps a module directory back to its import path.
func (l *Loader) pathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// load parses and type-checks one module package (memoized).
func (l *Loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.busy[path] = true
	defer func() { l.busy[path] = false }()

	dir := l.dirFor(path)
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
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
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Fset: l.fset, Files: files, Pkg: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// goFilesIn lists the non-test Go files of dir in name order.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// LoadPackages resolves the patterns ("./...", "./internal/core", an
// import path, or a directory) against the module and loads every
// matching package, in import-path order. Directories without Go files
// (and testdata/hidden subtrees) are skipped.
func (l *Loader) LoadPackages(patterns []string) ([]*Package, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if err := l.walk(l.ModuleRoot, dirs); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			root := strings.TrimSuffix(pat, "/...")
			if strings.HasPrefix(root, l.ModulePath) {
				root = l.dirFor(root)
			} else {
				root = filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(root, "./")))
			}
			if err := l.walk(root, dirs); err != nil {
				return nil, err
			}
		case strings.HasPrefix(pat, l.ModulePath):
			dirs[l.dirFor(pat)] = true
		default:
			abs := pat
			if !filepath.IsAbs(abs) {
				abs = filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
			}
			dirs[filepath.Clean(abs)] = true
		}
	}
	var paths []string
	for dir := range dirs {
		names, err := goFilesIn(dir)
		if err != nil || len(names) == 0 {
			continue
		}
		path, err := l.pathFor(dir)
		if err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	sort.Strings(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// walk collects candidate package directories under root.
func (l *Loader) walk(root string, dirs map[string]bool) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		dirs[path] = true
		return nil
	})
}

// Run applies each analyzer to each package and returns all diagnostics
// in (package, file, line) order.
func Run(cfg *Config, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Config:   cfg,
				Fset:     pkg.Fset,
				Path:     pkg.Path,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
			all = append(all, pass.Diagnostics()...)
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return all, nil
}
