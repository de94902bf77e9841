package sagevet

import (
	"go/ast"
	"go/token"

	"sage/internal/sagevet/analysis"
)

// WalOrder enforces the append→fsync→publish barrier: a call that
// publishes an overlay (//sage:publish — the server's updates.publish,
// which swaps the version and bumps the generation readers see) must be
// lexically preceded, in the same function, by a durable WAL append
// (//sage:durable-append). Publishing first would let a reader observe an
// update that a crash could then lose.
//
// The check is lexical rather than flow-sensitive — on the update path
// the append and the publish sit in the same function body (PR 6's
// apply), and a lexically-preceding append is exactly the reviewable
// property. Paths that publish state already durable by other means —
// replay of logged records, a compaction's renamed container — suppress
// the finding with //sage:allow walorder. Test files are skipped.
var WalOrder = &analysis.Analyzer{
	Name: "walorder",
	Doc:  "flag overlay publishes (//sage:publish) not preceded by a durable WAL append (//sage:durable-append) in the same function",
	Run:  runWalOrder,
}

func runWalOrder(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.TestFile(fd.Pos()) {
				continue
			}
			checkWalOrderFunc(pass, fd)
		}
	}
	return nil
}

func checkWalOrderFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	type found struct {
		call *ast.CallExpr
	}
	var publishes []found
	appendPos := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if calleeMarked(pass, call, "durable-append") {
			if appendPos == token.NoPos || call.Pos() < appendPos {
				appendPos = call.Pos()
			}
		}
		if calleeMarked(pass, call, "publish") {
			publishes = append(publishes, found{call})
		}
		return true
	})
	for _, p := range publishes {
		if appendPos == token.NoPos || p.call.Pos() < appendPos {
			pass.Reportf(p.call.Pos(), "overlay publish without a preceding durable WAL append in %s: a crash after publish would lose an acknowledged update", fd.Name.Name)
		}
	}
}
