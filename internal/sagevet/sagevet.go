// Package sagevet implements the repository's own vet suite: five
// analyzers that enforce the invariants Sage's correctness and
// performance rest on but the compiler cannot see.
//
//   - arenawrite: slices aliasing an mmap arena (the NVRAM-resident
//     graph) are never written through — the paper's semi-asymmetric
//     contract (Dhulipala et al., VLDB 2020) and PR 3's zero-copy one.
//   - hotalloc: functions marked //sage:hotpath stay allocation- and
//     closure-free — the PR 1 flat-slice wins.
//   - ctxcheckpoint: every registered algorithm's round loop reaches a
//     context checkpoint — the PR 2 cancellation contract.
//   - syncerr: Sync/Close/WAL-append error results are consumed, and
//     fsync errors inside retry loops are sticky — the PR 6 rules.
//   - walorder: an overlay publish is dominated by a durable WAL append
//     in the same function — the PR 6 append→fsync→publish barrier.
//
// The suite runs standalone via cmd/sage-vet under
// "go vet -vettool=$(which sage-vet) ./...". Conventions and the
// annotation grammar are documented in docs/STATIC_ANALYSIS.md.
package sagevet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"sage/internal/sagevet/analysis"
)

// Analyzers returns the suite in its fixed run order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{ArenaWrite, HotAlloc, CtxCheckpoint, SyncErr, WalOrder}
}

// A Unit bundles one type-checked package for RunPackage. Marks must
// already hold the imported packages' tables (from fact files under go
// vet, or in-process in tests).
type Unit struct {
	Fset   *token.FileSet
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info
	Module string
	Marks  *analysis.MarkSet
}

// RunPackage scans annotations, runs every analyzer enabled selects
// (nil = all), drops //sage:allow-suppressed findings, and returns the
// rest sorted by position. Marks for the unit's package — annotations
// plus analyzer-derived ones — are left in u.Marks for export.
func RunPackage(u Unit, enabled func(name string) bool) ([]analysis.Diagnostic, error) {
	u.Marks.SetCurrent(u.Pkg)
	analysis.ScanAnnotations(u.Fset, u.Files, u.Info, u.Marks)
	supp := analysis.ScanSuppressions(u.Fset, u.Files)

	var diags []analysis.Diagnostic
	for _, a := range Analyzers() {
		if enabled != nil && !enabled(a.Name) {
			continue
		}
		pass := analysis.NewPass(a, u.Fset, u.Files, u.Pkg, u.Info, u.Module, u.Marks, func(d analysis.Diagnostic) {
			if !supp.Allows(u.Fset, d.Pos, d.Analyzer) {
				diags = append(diags, d)
			}
		})
		if err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// staticCallee resolves a call to the package-level function or method
// it invokes (the generic origin of an explicit instantiation), or nil
// for builtins, conversions, and dynamic calls through function values.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.IndexExpr:
		return staticCallee(info, &ast.CallExpr{Fun: fun.X})
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

// calleeMarked reports whether the call's static callee carries mark m,
// following both the callee object and — for interface methods — the
// "m:<Interface>.<Method>" key of the receiver's named interface type.
func calleeMarked(pass *analysis.Pass, call *ast.CallExpr, m string) bool {
	fn := staticCallee(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	if pass.HasMark(fn, m) {
		return true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return false
	}
	named := namedOf(selection.Recv())
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	key := "m:" + named.Obj().Name() + "." + fn.Name()
	return pass.Marks().HasByKey(named.Obj().Pkg().Path(), key, m)
}

// namedOf unwraps pointers to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// isConversion reports whether the call is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// pkgPathOf returns the package path of an object, or "".
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isContextType reports whether t is context.Context (possibly through a
// named alias or embedding is not followed — the literal interface).
func isContextType(t types.Type) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
