// Package testonly finds the API that only tests call. TeNDaX exposes
// its engine through internal/ packages, and an exported name there that
// no program calls is code kept alive by its own tests: it costs reading,
// and it holds the engine to a contract no user has.
//
// The analyzer reports each exported function, method, type, variable
// and constant of a package under internal/ that no program reaches. A
// use counts only if it comes from a declaration a program reaches, so
// the check runs to a fixed point: a name called only by a function that
// only tests call is reported as well. The roots are every declaration
// outside internal/, in the analyzed packages (./... reaches cmd/ and
// examples/) or in the extra root (benchmark/, a module of its own), and
// in internal/ the code that runs or is kept without a caller: init
// functions, package-level variable initializers, methods called through
// an interface, and names allowed below. A use is keyed by name — a
// function's generic origin and full name, else its package path and
// name — because the extra root is a type universe of its own, and
// because a call through an instantiation (btree.Tree[int].Get) is a use
// of the generic method. A use inside the declaration it names (a
// recursive call, a method's own receiver type) does not count. A method
// that implements a method of an interface the code refers to, or of
// error or fmt.Stringer, is called through that interface and is not
// reported.
//
// Keep a name with `//tendax:allow-testonly <reason>`: a paper capability
// with no caller yet, an oracle a named test compares against, or the
// ROADMAP item that will call it. What an allowed name uses is reached.
package testonly

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tendax/internal/analysis/framework"
)

// Analyzer is the testonly checker.
var Analyzer = &framework.Analyzer{
	Name: "testonly",
	Doc:  "flags an exported name in internal/ that no non-test file references",
	End:  end,
}

// method is one interface method, spelled so that two type universes
// agree on it.
type method struct{ name, sig string }

// node is one declaration — a function, or one spec of a general
// declaration — with the keys it declares and the keys it uses.
type node struct {
	pkg  *framework.Package
	decl ast.Decl
	fn   *types.Func // nil unless decl is a function
	defs []string
	uses []string
}

func end(pass *framework.EndPass) error {
	// Every interface method a program can call dynamically: those of
	// the interfaces the code names or spells, error's and Stringer's.
	ifaces := [][]method{
		{{name: "Error", sig: "() (string)"}},
		{{name: "String", sig: "() (string)"}},
	}
	seen := make(map[*types.Interface]bool)
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 || seen[it] {
			return
		}
		seen[it] = true
		ms := make([]method, it.NumMethods())
		for i := range ms {
			m := it.Method(i)
			ms[i] = method{name: m.Name(), sig: sigString(m)}
		}
		ifaces = append(ifaces, ms)
	}
	var nodes []*node
	for _, pkgs := range [][]*framework.Package{pass.Pkgs, pass.Extra} {
		for _, pkg := range pkgs {
			nodes = collectNodes(pkg, nodes, addIface)
		}
	}

	// Reach from the roots: a name is used once a reached node uses it,
	// and every node declaring a used name is reached in turn.
	users := make(map[string][]*node)
	for _, n := range nodes {
		for _, k := range n.defs {
			users[k] = append(users[k], n)
		}
	}
	used := make(map[string]bool)
	var work []*node
	reach := func(n *node) {
		for _, k := range n.uses {
			if !used[k] {
				used[k] = true
				work = append(work, users[k]...)
			}
		}
	}
	for _, n := range nodes {
		if isRoot(n, ifaces) {
			reach(n)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		reach(n)
	}

	for _, pkg := range pass.Pkgs {
		if !inInternal(pkg.PkgPath) {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				for _, id := range declaredNames(decl) {
					obj := pkg.TypesInfo.Defs[id]
					if obj == nil || !id.IsExported() || used[key(obj)] {
						continue
					}
					if fn, ok := obj.(*types.Func); ok && implementsCalled(fn, ifaces) {
						continue
					}
					pass.Reportf(id.Pos(), "%s has no non-test use: delete it, unexport it, or allow it with a reason", describe(obj))
				}
			}
		}
	}
	return nil
}

// isRoot reports whether what n uses counts without a caller of n: n is
// outside internal/, an init function, a package-level variable with an
// initializer, a method called through an interface, or allowed.
func isRoot(n *node, ifaces [][]method) bool {
	if !inInternal(n.pkg.PkgPath) {
		return true
	}
	switch d := n.decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil && d.Name.Name == "init" {
			return true
		}
		if n.fn != nil && implementsCalled(n.fn, ifaces) {
			return true
		}
		return allowed(d.Doc)
	case *ast.GenDecl:
		return d.Tok == token.VAR || allowed(d.Doc)
	}
	return false
}

// allowed reports whether doc carries a testonly allow directive.
func allowed(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "tendax:allow-testonly") {
			return true
		}
	}
	return false
}

// collectNodes appends a node for every declaration of pkg's files — one
// per spec of a general declaration — with the keys it declares and uses,
// and hands addIface every interface type the files name or spell.
func collectNodes(pkg *framework.Package, nodes []*node, addIface func(types.Type)) []*node {
	info := pkg.TypesInfo
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, _ := decl.(*ast.FuncDecl)
			for _, part := range parts(decl) {
				n := &node{pkg: pkg, decl: decl}
				var self types.Object
				for _, id := range partNames(part) {
					if obj := info.Defs[id]; obj != nil {
						if k := key(obj); k != "" {
							n.defs = append(n.defs, k)
						}
						self = obj
					}
				}
				if fd == nil {
					self = nil // a spec may use a name it declares beside
				} else {
					n.fn, _ = self.(*types.Func)
				}
				ast.Inspect(part, func(x ast.Node) bool {
					switch x := x.(type) {
					case *ast.FieldList:
						// A method's receiver names its type, but is no use of it.
						return fd == nil || x != fd.Recv
					case *ast.InterfaceType:
						addIface(info.TypeOf(x))
					case *ast.Ident:
						obj := info.Uses[x]
						if obj == nil || obj == self {
							return true
						}
						if tn, ok := obj.(*types.TypeName); ok {
							addIface(tn.Type())
						}
						if k := key(obj); k != "" {
							n.uses = append(n.uses, k)
						}
					}
					return true
				})
				nodes = append(nodes, n)
			}
		}
	}
	return nodes
}

// parts splits a top-level declaration into the pieces that declare
// names: a function, or each spec of a general declaration.
func parts(decl ast.Decl) []ast.Node {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		return []ast.Node{d}
	case *ast.GenDecl:
		out := make([]ast.Node, len(d.Specs))
		for i, spec := range d.Specs {
			out[i] = spec
		}
		return out
	}
	return nil
}

// partNames returns the identifiers one function or spec declares.
func partNames(part ast.Node) []*ast.Ident {
	switch p := part.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{p.Name}
	case *ast.TypeSpec:
		return []*ast.Ident{p.Name}
	case *ast.ValueSpec:
		return p.Names
	}
	return nil
}

// key names a package-level object or a method so that every type
// universe, and every instantiation of a generic, spells it alike; "" for
// anything else.
func key(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin().FullName()
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// implementsCalled reports whether fn is a method of a type that
// implements an interface in ifaces that has fn's name and signature.
func implementsCalled(fn *types.Func, ifaces [][]method) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := framework.NamedType(recv.Type())
	if named == nil {
		return false
	}
	mset := types.NewMethodSet(types.NewPointer(named))
	has := make(map[method]bool, mset.Len())
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj().(*types.Func)
		has[method{name: m.Name(), sig: sigString(m)}] = true
	}
	for _, it := range ifaces {
		if implements(has, it, method{name: fn.Name(), sig: sigString(fn)}) {
			return true
		}
	}
	return false
}

// implements reports whether the method set has holds every method of it,
// one of them m.
func implements(has map[method]bool, it []method, m method) bool {
	found := false
	for _, x := range it {
		if !has[x] {
			return false
		}
		found = found || x == m
	}
	return found
}

// sigString spells fn's parameter and result types, packages by path:
// names and the receiver are no part of what an interface asks for.
func sigString(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	for i, t := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString([]string{"(", ") ("}[i])
		for j := 0; j < t.Len(); j++ {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(types.TypeString(t.At(j).Type(), qual))
		}
	}
	if sig.Variadic() {
		b.WriteString(" ...")
	}
	b.WriteString(")")
	return b.String()
}

// declaredNames returns the identifiers a top-level declaration declares.
func declaredNames(decl ast.Decl) []*ast.Ident {
	var ids []*ast.Ident
	for _, part := range parts(decl) {
		ids = append(ids, partNames(part)...)
	}
	return ids
}

func describe(obj types.Object) string {
	switch obj := obj.(type) {
	case *types.Func:
		if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
			return "method " + framework.NamedType(recv.Type()).Obj().Name() + "." + obj.Name()
		}
		return "func " + obj.Name()
	case *types.TypeName:
		return "type " + obj.Name()
	case *types.Const:
		return "const " + obj.Name()
	}
	return "var " + obj.Name()
}

// inInternal reports whether path names a package under an internal/
// directory.
func inInternal(path string) bool {
	return strings.Contains("/"+path+"/", "/internal/")
}
