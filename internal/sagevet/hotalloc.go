package sagevet

import (
	"go/ast"
	"go/token"
	"go/types"

	"sage/internal/sagevet/analysis"
)

// HotAlloc keeps //sage:hotpath functions allocation- and closure-free:
// the flat-slice inner loops whose 2.2× wins came precisely from removing
// per-edge allocations. Inside a hotpath function it flags
//
//   - make/new, slice/map composite literals, &T{}
//   - string concatenation and string⇄[]byte conversions
//   - growing appends (only the reuse form append(buf[:0], ...) is allowed)
//   - closures that capture variables, defer, go, channel operations
//   - boxing a concrete value into an interface (assignment or call argument)
//   - static calls to functions not themselves marked //sage:hotpath
//     (the sync/atomic and math/bits leaf packages are allowed)
//
// Dynamic calls through function values (traverse.Ops.Update and friends)
// are allowed: invoking a pre-built func value does not allocate — building
// one per edge did, and the capture rule catches that.
var HotAlloc = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "flag allocations, captures, boxing, and non-hotpath calls inside //sage:hotpath functions",
	Run:  runHotAlloc,
}

// hotAllowedPkgs are leaf packages hotpath code may call freely: their
// exported functions compile to allocation-free intrinsics.
var hotAllowedPkgs = map[string]bool{
	"sync/atomic": true,
	"math/bits":   true,
	"math":        true,
	"unsafe":      true,
}

// hotAllowedBuiltins never allocate (append is handled separately; make,
// new, and conversions are, elsewhere in this file).
var hotAllowedBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true, "min": true, "max": true,
	"delete": true, "clear": true, "panic": true, "print": true, "println": true,
}

func runHotAlloc(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil || !pass.HasMark(obj, "hotpath") {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
	return nil
}

func checkHotFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	selfAppends := collectSelfAppends(pass, fd.Body)
	var inspect func(n ast.Node) bool
	inspect = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			reportCaptures(pass, fd, n)
			return true // still check the body's own allocations
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "defer in hot path allocates a defer record")
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "goroutine launch in hot path")
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send in hot path")
		case *ast.UnaryExpr:
			switch n.Op {
			case token.ARROW:
				pass.Reportf(n.Pos(), "channel receive in hot path")
			case token.AND:
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&T{} allocates in hot path")
				}
			}
		case *ast.CompositeLit:
			if t, ok := info.Types[n]; ok && t.Type != nil {
				switch t.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(n.Pos(), "composite literal allocates in hot path")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(info, n.X) {
				pass.Reportf(n.Pos(), "string concatenation allocates in hot path")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(info, n.Lhs[0]) {
				pass.Reportf(n.Pos(), "string concatenation allocates in hot path")
			}
			checkBoxingAssign(pass, n)
		case *ast.CallExpr:
			checkHotCall(pass, n, selfAppends)
		}
		return true
	}
	ast.Inspect(fd.Body, inspect)
}

// collectSelfAppends records append calls in the reuse-by-assignment
// form x = append(x, ...): the result lands back in the slice it grew,
// so capacity is reused in steady state — the repo's scratch-buffer
// idiom (buf = buf[:0] up top, buf = append(buf, v) per element).
func collectSelfAppends(pass *analysis.Pass, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) == 0 || len(assign.Rhs) == 0 {
			return true
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok || !isBuiltin(pass.TypesInfo, call, "append") || len(call.Args) == 0 {
			return true
		}
		if sameRef(pass.TypesInfo, assign.Lhs[0], call.Args[0]) {
			out[call] = true
		}
		return true
	})
	return out
}

// sameRef reports whether two expressions name the same variable or the
// same field chain (s.Nghs and s.Nghs).
func sameRef(info *types.Info, a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch a := a.(type) {
	case *ast.Ident:
		bi, ok := b.(*ast.Ident)
		return ok && info.ObjectOf(a) != nil && info.ObjectOf(a) == info.ObjectOf(bi)
	case *ast.SelectorExpr:
		bs, ok := b.(*ast.SelectorExpr)
		return ok && info.ObjectOf(a.Sel) == info.ObjectOf(bs.Sel) && sameRef(info, a.X, bs.X)
	}
	return false
}

// reportCaptures flags identifiers inside a FuncLit that resolve to
// variables declared outside it: each captured variable forces the
// closure (and often the variable) onto the heap. A capture-free FuncLit
// compiles to a static function value and is allowed.
func reportCaptures(pass *analysis.Pass, fd *ast.FuncDecl, lit *ast.FuncLit) {
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		// Declared outside the literal but inside the enclosing function?
		if v.Pos() < lit.Pos() && v.Pos() > fd.Pos() {
			seen[v] = true
			pass.Reportf(id.Pos(), "closure captures %s in hot path; hoist the closure or pass the value explicitly", v.Name())
		}
		return true
	})
}

// checkHotCall applies the call rules: builtins by allowlist, append only
// in the reuse form, conversions only between non-string types, static
// callees only when hotpath-marked or in an allowed leaf package, and
// interface-boxing of arguments.
func checkHotCall(pass *analysis.Pass, call *ast.CallExpr, selfAppends map[*ast.CallExpr]bool) {
	info := pass.TypesInfo

	if isBuiltin(info, call, "append") {
		if !isReuseAppend(call) && !selfAppends[call] {
			pass.Reportf(call.Pos(), "append may grow and allocate in hot path; reuse a scratch buffer (append(buf[:0], ...) or buf = append(buf, ...))")
		}
		return
	}
	if isBuiltin(info, call, "make") || isBuiltin(info, call, "new") {
		pass.Reportf(call.Pos(), "%s allocates in hot path", ast.Unparen(call.Fun).(*ast.Ident).Name)
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if !hotAllowedBuiltins[b.Name()] {
				pass.Reportf(call.Pos(), "builtin %s is not allowed in hot path", b.Name())
			}
			return
		}
	}
	if isConversion(info, call) {
		if len(call.Args) == 1 && (isStringConv(info, call) || isByteSliceConv(info, call)) {
			pass.Reportf(call.Pos(), "string/[]byte conversion allocates in hot path")
		}
		return
	}

	fn := staticCallee(info, call)
	if fn == nil {
		// Dynamic call through a func value (ops.Update, loop bodies):
		// calling it is free; building it was checked at its literal.
		return
	}
	if calleeMarked(pass, call, "hotpath") || hotAllowedPkgs[pkgPathOf(fn)] {
		checkBoxingArgs(pass, call, fn)
		return
	}
	pass.Reportf(call.Pos(), "call to %s, which is not marked //sage:hotpath", fn.Name())
}

// isReuseAppend reports the allowed append shape: first argument is a
// slice expression truncated to zero length (buf[:0]), which reuses the
// buffer's existing capacity.
func isReuseAppend(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	se, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr)
	if !ok || se.Low != nil || se.High == nil {
		return false
	}
	lit, ok := ast.Unparen(se.High).(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// checkBoxingAssign flags assignments that box a concrete value into an
// interface-typed destination.
func checkBoxingAssign(pass *analysis.Pass, n *ast.AssignStmt) {
	info := pass.TypesInfo
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		lt := info.TypeOf(lhs)
		rt := info.TypeOf(n.Rhs[i])
		if boxes(lt, rt) {
			pass.Reportf(n.Rhs[i].Pos(), "assignment boxes %s into interface in hot path", rt.String())
		}
	}
}

// checkBoxingArgs flags arguments that box into interface parameters of
// an allowed call.
func checkBoxingArgs(pass *analysis.Pass, call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1 && call.Ellipsis == token.NoPos:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if boxes(pt, pass.TypesInfo.TypeOf(arg)) {
			pass.Reportf(arg.Pos(), "argument boxes %s into interface in hot path", pass.TypesInfo.TypeOf(arg).String())
		}
	}
}

// boxes reports whether assigning a value of type from to a destination
// of type to converts a concrete value into a non-empty-method interface
// — an allocation unless the value is pointer-shaped.
func boxes(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	if _, ok := to.Underlying().(*types.Interface); !ok {
		return false
	}
	if _, fromIface := from.Underlying().(*types.Interface); fromIface {
		return false // interface-to-interface is a pointer copy
	}
	if _, isPtr := from.Underlying().(*types.Pointer); isPtr {
		return false // pointers box without copying the pointee
	}
	switch from.Underlying().(type) {
	case *types.Basic, *types.Struct, *types.Slice, *types.Array, *types.Map:
		return true
	}
	return false
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isStringConv reports a conversion whose result is a string from a
// non-constant, non-string operand ([]byte, []rune, ...).
func isStringConv(info *types.Info, call *ast.CallExpr) bool {
	tv := info.Types[call.Fun]
	if tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsString == 0 {
		return false
	}
	return !isStringExpr(info, call.Args[0])
}

// isByteSliceConv reports a []byte(s) / []rune(s) conversion from a string.
func isByteSliceConv(info *types.Info, call *ast.CallExpr) bool {
	tv := info.Types[call.Fun]
	if tv.Type == nil {
		return false
	}
	if _, ok := tv.Type.Underlying().(*types.Slice); !ok {
		return false
	}
	return isStringExpr(info, call.Args[0])
}
