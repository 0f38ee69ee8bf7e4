// Package visclass enforces the multi-tenant cache-keying rule from
// PR 7. Redacted wire frames are memoized per event in a WireCache; the
// historical bug keyed that cache by frame family alone, so the first
// subscriber to encounter an event cached its redaction for everyone —
// a subscriber with a wider visibility class could be served a frame
// redacted for a narrower one, or vice versa (cache poisoning across
// tenants). The fix keys the cache by Event.VisClass.
//
// Two rules:
//
//  1. Every awareness.(*WireCache).Get call must derive its key from the
//     event's VisClass field — directly in the key expression, or through
//     one level of local variable assignment.
//  2. Event.VisClass may be written only inside functions whose doc
//     comment carries the `//tendax:visclass-stamp` directive: the class
//     is assigned exactly once, by the redactor, under its lock. Stamping
//     anywhere else (including composite literals) bypasses the redaction
//     pipeline.
//
// Suppress with `//tendax:allow-visclass <reason>`.
package visclass

import (
	"go/ast"
	"go/types"

	"tendax/internal/analysis/framework"
)

// Analyzer is the visclass invariant checker.
var Analyzer = &framework.Analyzer{
	Name: "visclass",
	Doc:  "flags wire-cache keys that omit Event.VisClass and VisClass stamps outside the redactor",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			stampFunc := framework.FuncDirective(fd, "tendax:visclass-stamp")
			assigns := localAssigns(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkCacheKey(pass, n, assigns)
				case *ast.AssignStmt:
					if !stampFunc {
						checkStamp(pass, n)
					}
				case *ast.CompositeLit:
					if !stampFunc {
						checkLitStamp(pass, n)
					}
				}
				return true
			})
		}
	}
	return nil
}

// checkCacheKey flags WireCache.Get calls whose key expression never
// touches VisClass.
func checkCacheKey(pass *framework.Pass, call *ast.CallExpr, assigns map[types.Object][]ast.Expr) {
	fn := framework.Callee(pass.TypesInfo, call)
	if fn == nil || !framework.IsMethod(fn, "awareness", "WireCache", "Get") || len(call.Args) == 0 {
		return
	}
	if mentionsVisClass(pass, call.Args[0], assigns, 1) {
		return
	}
	pass.Reportf(call.Args[0].Pos(),
		"wire-cache key does not incorporate Event.VisClass: subscribers in different visibility classes would share one cached redaction (cache-poisoning rule, PR 7)")
}

// mentionsVisClass reports whether expr references the VisClass field of
// awareness.Event, chasing local variable assignments up to depth levels.
func mentionsVisClass(pass *framework.Pass, expr ast.Expr, assigns map[types.Object][]ast.Expr, depth int) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if isVisClassField(pass, n) {
				found = true
				return false
			}
		case *ast.Ident:
			if depth == 0 {
				return true
			}
			obj := pass.TypesInfo.Uses[n]
			for _, rhs := range assigns[obj] {
				if mentionsVisClass(pass, rhs, assigns, depth-1) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// checkStamp flags assignments whose target is Event.VisClass.
func checkStamp(pass *framework.Pass, as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		if sel, ok := lhs.(*ast.SelectorExpr); ok && isVisClassField(pass, sel) {
			pass.Reportf(sel.Pos(),
				"Event.VisClass stamped outside a //tendax:visclass-stamp function: visibility classes are assigned only by the redactor, under its lock (PR 7)")
		}
	}
}

// checkLitStamp flags Event composite literals that set VisClass.
func checkLitStamp(pass *framework.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || !framework.TypeIs(tv.Type, "awareness", "Event") {
		return
	}
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "VisClass" {
				pass.Reportf(kv.Pos(),
					"Event.VisClass stamped outside a //tendax:visclass-stamp function: visibility classes are assigned only by the redactor, under its lock (PR 7)")
			}
		}
	}
}

// isVisClassField reports whether sel selects awareness.Event's VisClass
// field.
func isVisClassField(pass *framework.Pass, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "VisClass" {
		return false
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return false
	}
	return framework.TypeIs(selection.Recv(), "awareness", "Event")
}

// localAssigns maps every local variable to the expressions assigned to
// it anywhere in the body (1:1 assignments only — enough for the
// `key := classKey(...)` idiom the analyzer needs to see through).
func localAssigns(pass *framework.Pass, body *ast.BlockStmt) map[types.Object][]ast.Expr {
	out := make(map[types.Object][]ast.Expr)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj != nil {
				out[obj] = append(out[obj], as.Rhs[i])
			}
		}
		return true
	})
	return out
}
