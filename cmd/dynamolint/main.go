// Command dynamolint is the project's static-analysis gate: it runs the
// four dynamolint analyzers (detrand, conserve, steadystate, prodcaller —
// see internal/lint) over the module and exits nonzero on any
// finding. make lint and CI invoke it as
//
//	go run ./cmd/dynamolint ./...
//
// Flags select a subset of analyzers (-run detrand,conserve) and the
// module root (-C dir). Findings print one per line as
// file:line:col: message (analyzer).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dynamollm/internal/lint"
)

func main() {
	var (
		chdir = flag.String("C", "", "module root directory (default: nearest go.mod above the working directory)")
		only  = flag.String("run", "", "comma-separated analyzer subset (default: all)")
		list  = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dynamolint [-C dir] [-run a,b] [packages]\n\n"+
			"Packages default to ./... . Analyzers:\n")
		for _, a := range analyzers(nil) {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers(nil) {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := moduleRoot(*chdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynamolint:", err)
		os.Exit(2)
	}
	cfg := lint.DefaultConfig()
	loader := lint.NewLoader(root, cfg.ModulePath)
	selected, err := selectAnalyzers(*only, loader)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynamolint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.LoadPackages(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynamolint:", err)
		os.Exit(2)
	}
	diags, err := lint.Run(cfg, pkgs, selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynamolint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		pos := d.Pos
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		fmt.Printf("%s: %s (%s)\n", pos, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dynamolint: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

// analyzers builds the suite; prodcaller reads the whole module through
// l, which may be nil when the suite is only listed.
func analyzers(l *lint.Loader) []*lint.Analyzer {
	return []*lint.Analyzer{
		lint.NewDetrand(),
		lint.NewConserve(),
		lint.NewSteadystate(),
		lint.NewProdcaller(l),
	}
}

func selectAnalyzers(only string, l *lint.Loader) ([]*lint.Analyzer, error) {
	all := analyzers(l)
	if only == "" {
		return all, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// moduleRoot finds the directory holding go.mod, starting from dir (or
// the working directory).
func moduleRoot(dir string) (string, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		dir = wd
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
