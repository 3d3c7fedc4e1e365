package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TestOnly returns the testonly analyzer: an exported function, method,
// type, variable or constant in internal/... that no non-test file of the
// module names is flagged. Such an identifier is surface the program does
// not use: it has to be read, kept compiling and kept correct, and it only
// answers the tests written for it. Delete it, move it into a _test.go
// file, or keep it with //distlint:allow testonly <why> — a sequential
// reference a distributed primitive is tested against is the usual reason.
//
// References count from every non-test file of the module the loader can
// walk (cmd/, examples/, the root package and benchmark/ included), not
// only from the packages a run names, so a package gets the same verdict
// whatever patterns distlint is given. A reference from inside the
// declaration itself (recursion, a method's receiver) does not count. A
// method counts as used when its type implements an interface declaring a
// method of that name (heap.Interface's Len, fmt.Stringer's String):
// calls through the interface name the interface's method, not the
// concrete one. Packages in testdata directories are not part of the
// build, so the analyzer skips them.
func TestOnly() *Analyzer {
	return &Analyzer{
		Name: "testonly",
		Doc: "flags exported identifiers in internal packages that no " +
			"non-test file of the module references",
		Run: runTestOnly,
	}
}

func runTestOnly(p *Package) []Diagnostic {
	if !underInternal(p.Path) || strings.Contains(p.Path+"/", "/testdata/") {
		return nil
	}
	module, err := p.loader.moduleRefs()
	if err != nil {
		return []Diagnostic{diag(p, p.Files[0].Name, "testonly",
			"cannot load the module to look for references to %s: %v", p.Path, err)}
	}
	local := module
	if !module.pkgs[p] {
		// A package outside the module walk (a fixture) still sees its own
		// references.
		local = newRefIndex()
		local.add(p)
	}
	used := func(obj types.Object) bool {
		return module.used[obj] || local.used[obj] ||
			module.implemented(obj) || local.implemented(obj)
	}
	var out []Diagnostic
	flag := func(id *ast.Ident, kind string) {
		if !id.IsExported() {
			return
		}
		if obj := p.Info.Defs[id]; obj != nil && !used(obj) {
			out = append(out, diag(p, id, "testonly",
				"exported %s %s is referenced only by tests; delete it, move it into a _test.go file, or //%s testonly <why it stays>",
				kind, id.Name, AllowDirective))
		}
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					flag(d.Name, "method")
				} else {
					flag(d.Name, "function")
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						flag(s.Name, "type")
					case *ast.ValueSpec:
						kind := "variable"
						if d.Tok == token.CONST {
							kind = "constant"
						}
						for _, id := range s.Names {
							flag(id, kind)
						}
					}
				}
			}
		}
	}
	return out
}

// refIndex records what a set of packages' non-test files reference, and
// the named interfaces those packages can see, by method name.
type refIndex struct {
	pkgs   map[*Package]bool
	used   map[types.Object]bool
	ifaces map[string][]*types.Interface
	seen   map[*types.Package]bool // packages whose interfaces are indexed
}

func newRefIndex() *refIndex {
	x := &refIndex{
		pkgs:   make(map[*Package]bool),
		used:   make(map[types.Object]bool),
		ifaces: make(map[string][]*types.Interface),
		seen:   make(map[*types.Package]bool),
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	x.ifaces["Error"] = []*types.Interface{errType}
	return x
}

// add indexes p's references, skipping those from inside the referenced
// declaration itself and method receivers, and the interfaces of p and of
// every package it imports, transitively.
func (x *refIndex) add(p *Package) {
	x.pkgs[p] = true
	record := func(n ast.Node, self map[types.Object]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				obj := p.Info.Uses[id]
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin()
				}
				if obj != nil && !self[obj] {
					x.used[obj] = true
				}
			}
			return true
		})
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				self := map[types.Object]bool{p.Info.Defs[d.Name]: true}
				record(d.Type, self)
				if d.Body != nil {
					record(d.Body, self)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					self := make(map[types.Object]bool)
					switch s := spec.(type) {
					case *ast.TypeSpec:
						self[p.Info.Defs[s.Name]] = true
					case *ast.ValueSpec:
						for _, id := range s.Names {
							self[p.Info.Defs[id]] = true
						}
					}
					record(spec, self)
				}
			}
		}
	}
	x.addInterfaces(p.Types)
}

func (x *refIndex) addInterfaces(tp *types.Package) {
	if x.seen[tp] {
		return
	}
	x.seen[tp] = true
	scope := tp.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		iface, ok := tn.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i).Name()
			x.ifaces[m] = append(x.ifaces[m], iface)
		}
	}
	for _, imp := range tp.Imports() {
		x.addInterfaces(imp)
	}
}

// implemented reports whether obj is a method whose receiver type, or a
// pointer to it, implements an indexed interface that declares a method
// named like obj.
func (x *refIndex) implemented(obj types.Object) bool {
	m, ok := obj.(*types.Func)
	if !ok || m.Type().(*types.Signature).Recv() == nil {
		return false
	}
	recv := m.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range x.ifaces[m.Name()] {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}
