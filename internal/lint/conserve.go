package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NewConserve builds the conserve analyzer: every integer counter field
// on the configured counter structs (core.Result, engine.Counters,
// engine.KVCounters) must be referenced by that struct's
// conservation-invariant function (CheckInvariants / CheckLaws) or carry
// //conserve:ignore <reason>, so a newly added counter cannot silently
// bypass the invariant suite.
func NewConserve() *Analyzer {
	a := &Analyzer{
		Name: "conserve",
		Doc:  "integer counters on conservation-audited structs must be checked by the invariant function or waived with //conserve:ignore",
	}
	a.Run = runConserve
	return a
}

func runConserve(pass *Pass) error {
	for _, tgt := range pass.Config.Conserve {
		if tgt.Pkg != pass.Path {
			continue
		}
		checkConserveTarget(pass, tgt)
	}
	return nil
}

func checkConserveTarget(pass *Pass, tgt ConserveTarget) {
	obj, ok := pass.Pkg.Scope().Lookup(tgt.Struct).(*types.TypeName)
	if !ok {
		pass.Reportf(pass.Files[0].Name.Pos(),
			"conserve target %s.%s not found in package %s", tgt.Struct, tgt.Invariant, pass.Path)
		return
	}
	strct, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		pass.Reportf(obj.Pos(), "conserve target %s is not a struct", tgt.Struct)
		return
	}

	// Locate the invariant: a method on the struct or a package func.
	var inv *ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Name.Name != tgt.Invariant {
				continue
			}
			if fn.Recv != nil {
				tv, ok := pass.Info.Types[fn.Recv.List[0].Type]
				if !ok || namedStructOf(tv.Type) != obj.Type() {
					continue
				}
			}
			inv = fn
		}
	}
	if inv == nil {
		pass.Reportf(obj.Pos(),
			"conserve target %s has no invariant function %s: add it so counters stay auditable",
			tgt.Struct, tgt.Invariant)
		return
	}

	fieldIdx := map[*types.Var]int{}
	for i := 0; i < strct.NumFields(); i++ {
		fieldIdx[strct.Field(i)] = i
	}
	covered := make([]bool, strct.NumFields())
	ast.Inspect(inv.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.Ident:
			if v, ok := pass.Info.Uses[node].(*types.Var); ok {
				if i, ok := fieldIdx[v]; ok {
					covered[i] = true
				}
			}
		case *ast.SelectorExpr:
			if named, ok := obj.Type().(*types.Named); ok {
				if i, ok := promotedFieldHop(pass, node, named); ok && i < len(covered) {
					covered[i] = true
				}
			}
		}
		return true
	})

	for i := 0; i < strct.NumFields(); i++ {
		field := strct.Field(i)
		if covered[i] || !isCounterType(field.Type()) {
			continue
		}
		f := fileFor(pass, field.Pos())
		if f != nil {
			reason, waived := pass.waiverAt(f, field.Pos(), DirConserveIgnore)
			if waived && reason != "" {
				continue
			}
			if waived {
				pass.Reportf(field.Pos(),
					"//%s waiver on %s.%s needs a justification", DirConserveIgnore, tgt.Struct, field.Name())
				continue
			}
		}
		pass.Reportf(field.Pos(),
			"counter %s.%s is not checked by %s: add an invariant or waive with //%s <reason>",
			tgt.Struct, field.Name(), tgt.Invariant, DirConserveIgnore)
	}
}

// isCounterType reports whether t is an integer counter: an integer, or
// a fixed array of integers (per-class counter banks).
func isCounterType(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsInteger != 0
	case *types.Array:
		return isCounterType(u.Elem())
	}
	return false
}

// promotedFieldHop returns the direct-field index a selection on the
// named struct steps through. A single-hop selection counts only when it
// selects a field; a multi-hop (promoted) selection's first hop is
// always a field of the outer struct. Direct method selections (whose
// single index is a method-set position) never count.
func promotedFieldHop(pass *Pass, sel *ast.SelectorExpr, named *types.Named) (int, bool) {
	s, ok := pass.Info.Selections[sel]
	if !ok || namedStructOf(s.Recv()) != named || len(s.Index()) == 0 {
		return 0, false
	}
	if len(s.Index()) == 1 {
		if _, isField := s.Obj().(*types.Var); !isField {
			return 0, false
		}
	}
	return s.Index()[0], true
}

// namedStructOf unwraps pointers and returns the named type when t is a
// named struct (or pointer to one), else nil.
func namedStructOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// fileFor returns the syntax file containing pos.
func fileFor(pass *Pass, pos token.Pos) *ast.File {
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}
