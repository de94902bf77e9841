package sagevet

import (
	"go/ast"
	"go/types"

	"sage/internal/sagevet/analysis"
)

// CtxCheckpoint enforces the cancellation contract: every registered
// algorithm's round loop must reach a context checkpoint, so a
// long-running traversal can be cancelled between rounds.
//
// Mechanically, the analyzer derives two marks for every package it
// visits and exports them for importers:
//
//   - "checkpoints": the function polls its context — it contains
//     <-ctx.Done() or a ctx.Err() call (psam's Env.Checkpoint is the
//     canonical seed), or it statically calls a checkpoints function.
//   - "trivial": the function contains no loops and calls only trivial
//     functions — a bounded accessor whose presence in a loop does not
//     make the loop long-running.
//
// Round loops are found through the algorithm registry: a composite
// literal of a struct type named Spec with a run field roots the search,
// and every in-package function reachable from that run value is
// checked. A for/range loop whose body makes a non-trivial call but can
// never reach a checkpoints function is flagged. Loops inside nested
// function literals are skipped — those are per-chunk worker bodies that
// run under an already-checkpointed traversal.
var CtxCheckpoint = &analysis.Analyzer{
	Name: "ctxcheckpoint",
	Doc:  "flag registered-algorithm round loops that can never reach a context checkpoint",
	Run:  runCtxCheckpoint,
}

func runCtxCheckpoint(pass *analysis.Pass) error {
	info := pass.TypesInfo

	// Collect every function declaration with its object.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}

	// Seed and propagate "checkpoints" to a fixpoint; derive "trivial".
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			if !pass.HasMark(fn, "checkpoints") && reachesCheckpoint(pass, fd.Body) {
				pass.Mark(fn, "checkpoints")
				changed = true
			}
			if !pass.HasMark(fn, "trivial") && isTrivialFunc(pass, fd.Body) {
				pass.Mark(fn, "trivial")
				changed = true
			}
		}
	}

	// Roots: functions reachable from algorithm registrations.
	roots := map[*types.Func]bool{}
	var rootLits []*ast.FuncLit
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			named := namedOf(info.TypeOf(lit))
			if named == nil || named.Obj().Name() != "Spec" {
				return true
			}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "run" {
					continue
				}
				switch v := ast.Unparen(kv.Value).(type) {
				case *ast.FuncLit:
					rootLits = append(rootLits, v)
					addCalleeRoots(pass, v.Body, decls, roots)
				default:
					if fn, ok := info.Uses[rootIdent(kv.Value)].(*types.Func); ok {
						roots[fn] = true
					}
				}
			}
			return true
		})
	}
	// Close the root set over in-package static calls, so the helpers an
	// algorithm calls have their loops checked too.
	for changed := true; changed; {
		changed = false
		for fn := range roots {
			fd := decls[fn]
			if fd == nil {
				continue
			}
			before := len(roots)
			addCalleeRoots(pass, fd.Body, decls, roots)
			if len(roots) != before {
				changed = true
			}
		}
	}

	for _, lit := range rootLits {
		checkRoundLoops(pass, lit.Body)
	}
	for fn := range roots {
		if fd := decls[fn]; fd != nil {
			checkRoundLoops(pass, fd.Body)
		}
	}
	return nil
}

// rootIdent digs the identifier out of a run value like BFSRun or
// pkg.BFSRun.
func rootIdent(e ast.Expr) *ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

// addCalleeRoots adds every in-package function statically called from
// body to roots.
func addCalleeRoots(pass *analysis.Pass, body ast.Node, decls map[*types.Func]*ast.FuncDecl, roots map[*types.Func]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := staticCallee(pass.TypesInfo, call); fn != nil {
			if _, inPkg := decls[fn]; inPkg {
				roots[fn] = true
			}
		}
		return true
	})
}

// reachesCheckpoint reports whether the body polls its context directly
// or calls a checkpoints-marked function.
func reachesCheckpoint(pass *analysis.Pass, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			// <-ctx.Done()
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && isCtxMethod(pass.TypesInfo, call, "Done") {
				found = true
			}
		case *ast.CallExpr:
			if isCtxMethod(pass.TypesInfo, n, "Err") {
				found = true
			} else if calleeMarked(pass, n, "checkpoints") {
				found = true
			}
		}
		return !found
	})
	return found
}

// isCtxMethod reports a call of the named method on a context.Context.
func isCtxMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	return isContextType(info.TypeOf(sel.X))
}

// isTrivialFunc reports a body with no loops, no selects, and only
// trivial or builtin calls — cheap accessors safe inside a round loop.
func isTrivialFunc(pass *analysis.Pass, body ast.Node) bool {
	trivial := true
	ast.Inspect(body, func(n ast.Node) bool {
		if !trivial {
			return false
		}
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt, *ast.GoStmt:
			trivial = false
		case *ast.CallExpr:
			if isBuiltinCall(pass.TypesInfo, n) || isConversion(pass.TypesInfo, n) {
				return true
			}
			if fn := staticCallee(pass.TypesInfo, n); fn != nil && pass.HasMark(fn, "trivial") {
				return true
			}
			trivial = false
		}
		return trivial
	})
	return trivial
}

func isBuiltinCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, isB := info.Uses[id].(*types.Builtin)
	return isB
}

// checkRoundLoops flags for/range loops in body (outside nested func
// literals) that make a non-trivial call yet can never reach a
// checkpoint.
func checkRoundLoops(pass *analysis.Pass, body *ast.BlockStmt) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // worker bodies run under a checkpointed traversal
		}
		var loopBody *ast.BlockStmt
		switch l := n.(type) {
		case *ast.ForStmt:
			loopBody = l.Body
		case *ast.RangeStmt:
			loopBody = l.Body
		}
		if loopBody == nil {
			return true
		}
		if loopIsLongRunning(pass, loopBody) && !reachesCheckpoint(pass, loopBody) {
			pass.Reportf(n.Pos(), "round loop never reaches a context checkpoint; call Env.Checkpoint (or poll ctx) once per round")
			return false // inner loops are covered by the outer report
		}
		return true
	}
	ast.Inspect(body, walk)
}

// loopIsLongRunning reports whether the loop body (outside nested func
// literals) makes at least one non-trivial call — the signal that an
// iteration does real work and the loop needs a checkpoint. Only static
// calls into this module count: a CAS retry spinning on sync/atomic or a
// merge loop invoking a caller-supplied func value is not a round loop —
// the checkpoint obligation sits with whoever drives the iteration.
func loopIsLongRunning(pass *analysis.Pass, body *ast.BlockStmt) bool {
	long := false
	ast.Inspect(body, func(n ast.Node) bool {
		if long {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || !pass.InModule(fn.Pkg()) {
			return true
		}
		if pass.HasMark(fn, "trivial") {
			return true
		}
		long = true
		return false
	})
	return long
}
