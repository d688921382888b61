package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NewProdcaller builds the prodcaller analyzer: every package-level
// name, method and struct field declared in non-test code must have a
// non-test use somewhere in the module outside its own declaration, or
// carry //dynamolint:api <reason>. It checks exported names under
// internal/ and unexported names anywhere; exported names elsewhere (the
// root package's public facade, commands) are the module's surface.
//
// The use set always covers the whole module, the bench/ module included
// (the loader walks into it), whatever subset of packages is analyzed;
// l memoizes, so those packages are type-checked once.
func NewProdcaller(l *Loader) *Analyzer {
	var uses *useSet
	a := &Analyzer{
		Name: "prodcaller",
		Doc:  "names, methods and fields need a non-test use in the module or a //dynamolint:api waiver",
	}
	a.Run = func(pass *Pass) error {
		if uses == nil {
			pkgs, err := l.LoadPackages([]string{"./..."})
			if err != nil {
				return err
			}
			uses = collectUses(l.ModulePath, pkgs)
		}
		checkProdcaller(pass, uses)
		return nil
	}
	return a
}

// useSet is what non-test code of the module uses: objects declared in
// the module, and the non-empty interfaces its values can meet.
type useSet struct {
	module string
	used   map[types.Object]bool
	seen   map[types.Type]bool
	ifaces map[string][]*types.Interface // by method name
}

func collectUses(module string, pkgs []*Package) *useSet {
	u := &useSet{
		module: module,
		used:   make(map[types.Object]bool),
		seen:   make(map[types.Type]bool),
		ifaces: make(map[string][]*types.Interface),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				u.collectDecl(pkg.Info, decl)
			}
		}
		for _, tv := range pkg.Info.Types {
			u.addType(tv.Type)
		}
		for _, imp := range pkg.Pkg.Imports() {
			if !inModule(imp.Path(), module) {
				u.addScope(imp.Scope())
			}
		}
	}
	for obj := range u.used {
		u.addType(obj.Type())
	}
	return u
}

// collectDecl records the uses in one top-level declaration, except
// uses of the names a spec or func declares itself (recursion,
// self-reference) and a method's receiver type.
func (u *useSet) collectDecl(info *types.Info, decl ast.Decl) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		self := map[types.Object]bool{info.Defs[d.Name]: true}
		u.collectNode(info, self, d.Type)
		if d.Body != nil {
			u.collectNode(info, self, d.Body)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			self := map[types.Object]bool{}
			switch s := spec.(type) {
			case *ast.TypeSpec:
				self[info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, name := range s.Names {
					self[info.Defs[name]] = true
				}
			}
			u.collectNode(info, self, spec)
		}
	}
}

func (u *useSet) collectNode(info *types.Info, self map[types.Object]bool, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := origin(info.Uses[n]); obj != nil && !self[obj] {
				u.mark(obj)
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[n]; ok {
				u.markPath(sel)
			}
		case *ast.CompositeLit:
			u.markPositional(info, n)
		}
		return true
	})
}

func (u *useSet) mark(obj types.Object) {
	if pkg := obj.Pkg(); pkg != nil && inModule(pkg.Path(), u.module) {
		u.used[obj] = true
	}
}

// markPath counts a promoted selection as a use of every embedded field
// on its path.
func (u *useSet) markPath(sel *types.Selection) {
	t := sel.Recv()
	for _, i := range sel.Index()[:len(sel.Index())-1] {
		st, ok := deref(t).Underlying().(*types.Struct)
		if !ok {
			return
		}
		field := st.Field(i)
		u.mark(field.Origin())
		t = field.Type()
	}
}

// markPositional counts every field of an unkeyed struct literal.
func (u *useSet) markPositional(info *types.Info, lit *ast.CompositeLit) {
	if len(lit.Elts) == 0 {
		return
	}
	if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
		return
	}
	tv, ok := info.Types[lit]
	if !ok {
		return
	}
	if st, ok := deref(tv.Type).Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			u.mark(st.Field(i).Origin())
		}
	}
}

// addType records the non-empty interfaces reachable from t without
// entering a named type's own structure: the interfaces non-test code
// names, converts to, or passes values to.
func (u *useSet) addType(t types.Type) {
	if t == nil || u.seen[t] {
		return
	}
	u.seen[t] = true
	switch t := t.(type) {
	case *types.Alias:
		u.addType(types.Unalias(t))
	case *types.Named:
		if iface, ok := t.Underlying().(*types.Interface); ok {
			u.addIface(iface)
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			u.addType(t.TypeArgs().At(i))
		}
	case *types.Interface:
		u.addIface(t)
	case *types.TypeParam:
		u.addType(t.Constraint())
	case *types.Pointer:
		u.addType(t.Elem())
	case *types.Slice:
		u.addType(t.Elem())
	case *types.Array:
		u.addType(t.Elem())
	case *types.Chan:
		u.addType(t.Elem())
	case *types.Map:
		u.addType(t.Key())
		u.addType(t.Elem())
	case *types.Signature:
		u.addType(t.Params())
		u.addType(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			u.addType(t.At(i).Type())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			u.addType(t.Field(i).Type())
		}
	}
}

// addScope records the exported interfaces an imported package
// declares: it may call them on any value it is handed, as fmt calls
// String and flag calls Set.
func (u *useSet) addScope(scope *types.Scope) {
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
			u.addType(tn.Type())
		}
	}
}

func (u *useSet) addIface(iface *types.Interface) {
	for i := 0; i < iface.NumMethods(); i++ {
		name := iface.Method(i).Name()
		u.ifaces[name] = append(u.ifaces[name], iface)
	}
}

// implementsUsed reports whether fn's receiver type implements a used
// interface that has a method of fn's name.
func (u *useSet) implementsUsed(fn *types.Func) bool {
	recv := deref(fn.Signature().Recv().Type())
	for _, iface := range u.ifaces[fn.Name()] {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// embedsUsed reports whether the embedded field i of t is how t or *t
// meets a used interface: a method of that interface is promoted from
// the field.
func (u *useSet) embedsUsed(t types.Type, i int) bool {
	ptr := types.NewPointer(t)
	ms := types.NewMethodSet(ptr)
	for j := 0; j < ms.Len(); j++ {
		sel := ms.At(j)
		if len(sel.Index()) < 2 || sel.Index()[0] != i {
			continue
		}
		for _, iface := range u.ifaces[sel.Obj().Name()] {
			if types.Implements(t, iface) || types.Implements(ptr, iface) {
				return true
			}
		}
	}
	return false
}

func checkProdcaller(pass *Pass, u *useSet) {
	internal := strings.HasPrefix(pass.Path, pass.Config.ModulePath+"/internal/")
	check := func(kind, name string, obj types.Object) {
		if obj == nil || obj.Name() == "_" || u.used[obj] || (obj.Exported() && !internal) {
			return
		}
		if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil && u.implementsUsed(fn) {
			return
		}
		if f := fileFor(pass, obj.Pos()); f != nil {
			reason, waived := pass.waiverAt(f, obj.Pos(), DirAPI)
			if waived && reason != "" {
				return
			}
			if waived {
				pass.Reportf(obj.Pos(), "//%s waiver on %s needs a justification", DirAPI, name)
				return
			}
		}
		pass.Reportf(obj.Pos(), "%s %s has no non-test use in the module: delete it, or waive with //%s <reason>",
			kind, name, DirAPI)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj := pass.Info.Defs[d.Name]
				switch {
				case d.Recv != nil:
					check("method", recvName(obj)+"."+d.Name.Name, obj)
				case d.Name.Name == "init", d.Name.Name == "main" && pass.Pkg.Name() == "main":
				default:
					check("func", d.Name.Name, obj)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						obj := pass.Info.Defs[s.Name]
						check("type", s.Name.Name, obj)
						if _, ok := s.Type.(*ast.StructType); ok {
							st := obj.Type().Underlying().(*types.Struct)
							for i := 0; i < st.NumFields(); i++ {
								if st.Field(i).Embedded() && u.embedsUsed(obj.Type(), i) {
									continue
								}
								check("field", s.Name.Name+"."+st.Field(i).Name(), st.Field(i))
							}
						}
					case *ast.ValueSpec:
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
						}
						for _, name := range s.Names {
							check(kind, name.Name, pass.Info.Defs[name])
						}
					}
				}
			}
		}
	}
}

// recvName is the name of a method's receiver type.
func recvName(obj types.Object) string {
	if named, ok := types.Unalias(deref(obj.(*types.Func).Signature().Recv().Type())).(*types.Named); ok {
		return named.Obj().Name()
	}
	return "?"
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func deref(t types.Type) types.Type {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

func inModule(path, module string) bool {
	return path == module || strings.HasPrefix(path, module+"/")
}
