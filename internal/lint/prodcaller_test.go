package lint

import (
	"path/filepath"
	"testing"
)

// TestProdcaller runs prodcaller over testdata/prodcaller, a fixture
// module ("example.com") with a root package, internal/a and a bench/
// command: once over the whole module, and once over internal/a alone,
// whose use set must still come from the whole module.
func TestProdcaller(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "prodcaller"))
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, "example.com")
	for _, pattern := range []string{"./...", "./internal/a"} {
		t.Run(pattern, func(t *testing.T) {
			pkgs, err := l.LoadPackages([]string{pattern})
			if err != nil {
				t.Fatal(err)
			}
			diags, err := Run(testConfig(), pkgs, []*Analyzer{NewProdcaller(l)})
			if err != nil {
				t.Fatal(err)
			}
			var wants []*expectation
			for _, pkg := range pkgs {
				wants = append(wants, wantsIn(t, pkg)...)
			}
			reconcile(t, wants, diags)
		})
	}
}
