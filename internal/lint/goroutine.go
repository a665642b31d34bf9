package lint

import (
	"go/ast"
	"go/types"
)

// GoroutineAnalyzer polices the parallel merge paths. The repo's
// concurrency contract (prap.ForEach, the fan-out behind both the PRaP
// phases and core's step1Compute driver) is that worker
// goroutines write only to i-indexed slots of preallocated slices, so
// the parallel schedule cannot perturb results or race. Writing a
// captured outer variable directly from inside a `go func` closure —
// shared accumulation like `total += x` or clobbering `err` — breaks
// that contract even when the race detector happens to miss it.
// Index-expression writes (slot[i] = v) remain allowed; plain
// identifier or field writes to variables declared outside the closure
// are flagged.
var GoroutineAnalyzer = &Analyzer{
	Name: "goroutinecapture",
	Doc:  "go-closures in parallel merge packages must not write captured variables directly",
	Run:  runGoroutine,
}

func runGoroutine(pass *Pass) []Diagnostic {
	if !hasPath(pass.Config.ParallelPackages, pass.PkgPath) {
		return nil
	}
	var diags []Diagnostic
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if fl, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				checkClosure(pass, fl, &diags)
			}
			return true
		})
	}
	return diags
}

func checkClosure(pass *Pass, fl *ast.FuncLit, diags *[]Diagnostic) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkCapturedWrite(pass, fl, lhs, diags)
			}
		case *ast.IncDecStmt:
			checkCapturedWrite(pass, fl, n.X, diags)
		}
		return true
	})
}

// checkCapturedWrite flags writes through a plain identifier or a
// selector chain whose base variable is declared outside the closure.
// Index expressions anywhere in the chain exempt the write: per-index
// slot writes are the sanctioned way to publish worker results.
func checkCapturedWrite(pass *Pass, fl *ast.FuncLit, lhs ast.Expr, diags *[]Diagnostic) {
	if hasIndex(lhs) {
		return
	}
	root := rootIdent(lhs)
	if root == nil || root.Name == "_" {
		return
	}
	v, ok := objOf(pass, root).(*types.Var)
	if !ok || within(fl, v) {
		return // declared inside the closure (or not a variable)
	}
	pass.report(diags, "goroutinecapture", lhs.Pos(),
		"go-closure writes captured variable %s; publish results through a per-index slot, channel, or sync/atomic instead",
		exprString(lhs))
}

func hasIndex(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			return true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}
