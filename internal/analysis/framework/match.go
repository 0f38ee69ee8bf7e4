package framework

import (
	"go/ast"
	"go/types"
	"strings"
)

// PkgPathMatches reports whether a package path names the given package:
// exact match or a "/"-separated suffix, so the real tree
// ("tendax/internal/wal") and an analysistest fixture stub ("wal") match
// the same analyzer rules.
func PkgPathMatches(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// NamedType returns the named type behind t, unwrapping pointers and
// aliases; nil when t is not (a pointer to) a named type.
func NamedType(t types.Type) *types.Named {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named
	}
	if ptr, ok := t.(*types.Pointer); ok {
		if named, ok := ptr.Elem().(*types.Named); ok {
			return named
		}
	}
	return nil
}

// TypeIs reports whether t is (a pointer to) the named type
// pkgSuffix.name.
func TypeIs(t types.Type, pkgSuffix, name string) bool {
	named := NamedType(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Name() == name && PkgPathMatches(obj.Pkg().Path(), pkgSuffix)
}

// IsMethod reports whether obj is the method pkgSuffix.(typeName).method.
func IsMethod(obj types.Object, pkgSuffix, typeName, method string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != method {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return TypeIs(sig.Recv().Type(), pkgSuffix, typeName)
}

// Callee resolves the called function or method object of a call
// expression, or nil for calls through function values, built-ins and
// type conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// unparen strips parenthesis expressions (ast.Unparen needs go1.22; the
// module floor is lower).
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// ShortName renders an object compactly for diagnostics: "pkg.Name" for
// package-level objects, "(*pkg.Type).Method" for methods.
func ShortName(obj types.Object) string {
	if obj == nil {
		return "<nil>"
	}
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Name() + "."
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if named := NamedType(sig.Recv().Type()); named != nil {
				star := ""
				if _, isPtr := sig.Recv().Type().(*types.Pointer); isPtr {
					star = "*"
				}
				return "(" + star + pkg + named.Obj().Name() + ")." + fn.Name()
			}
		}
	}
	return pkg + obj.Name()
}
