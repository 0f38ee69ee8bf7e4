// Package snapshotread enforces the MVCC read discipline from PR 3.
// A Document keeps two views of its text: the live texttree buffer, which
// is mutated under the document mutex, and an immutable published
// snapshot swapped in atomically after each committed edit. Readers must
// resolve through the snapshot; touching the live tree without the mutex
// reproduces the pre-PR 3 torn read, where Len/Text could observe a
// half-applied insert run.
//
// The analyzer generalizes the shape instead of hard-coding Document: any
// struct that pairs a sync.Mutex/RWMutex field with a *texttree.Buffer
// field is treated as lock-guarded, and every access to the buffer field
// is flagged unless (a) the guarding mutex of the same receiver is held
// at that point in the enclosing function, or (b) the enclosing function
// follows the `*Locked` naming convention, which documents that the
// caller holds the lock.
//
// Suppress with `//tendax:allow-snapshotread <reason>` — construction
// paths that run before the document is shared are the expected users.
package snapshotread

import (
	"go/ast"
	"go/types"
	"strings"

	"tendax/internal/analysis/framework"
)

// Analyzer is the snapshotread invariant checker.
var Analyzer = &framework.Analyzer{
	Name: "snapshotread",
	Doc:  "flags access to a mutex-guarded live texttree buffer without the guarding lock held",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// The *Locked suffix is the codebase's caller-holds-the-lock
			// convention (publishEventLocked, addAuthorLocked, ...).
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				continue
			}
			framework.WalkLockRegions(pass.TypesInfo, fd.Body, func(n ast.Node, held framework.HeldLocks) {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return
				}
				selection, ok := pass.TypesInfo.Selections[sel]
				if !ok || selection.Kind() != types.FieldVal {
					return
				}
				field, ok := selection.Obj().(*types.Var)
				if !ok || !framework.TypeIs(field.Type(), "texttree", "Buffer") {
					return
				}
				muName := guardingMutex(selection.Recv())
				if muName == "" {
					return
				}
				base := types.ExprString(sel.X)
				if _, locked := held[base+"."+muName]; locked {
					return
				}
				pass.Reportf(sel.Pos(),
					"live tree %s.%s read without holding %s.%s: resolve through the published snapshot, or lock first (MVCC torn-read rule, PR 3)",
					base, field.Name(), base, muName)
			})
		}
	}
	return nil
}

// guardingMutex returns the name of the sync.Mutex/RWMutex field declared
// alongside the buffer in recv's struct type, or "" when the struct is not
// lock-guarded.
func guardingMutex(recv types.Type) string {
	named := framework.NamedType(recv)
	if named == nil {
		return ""
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if framework.TypeIs(f.Type(), "sync", "Mutex") || framework.TypeIs(f.Type(), "sync", "RWMutex") {
			return f.Name()
		}
	}
	return ""
}
