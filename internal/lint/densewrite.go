package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DenseWriteAnalyzer guards the store-queue discipline behind the ITS
// pipeline. The shared dense result vector is read, segment by segment,
// by the next iteration's stripe workers while step 2 is still
// producing it, so every write into it must be ordered before the
// segment publish those readers synchronize on. prap's store queue
// meets that by draining on the calling goroutine, in ascending key
// order, between the merge cores' join and each publish; no spawned
// goroutine writes the result. Any function literal in a parallel package
// that writes through an index expression into a dense vector declared
// outside the literal could reassociate the per-element sums or race
// the segment handoff, so it is flagged, unless the enclosing function
// is blessed via Config.BlessedDenseWriters (the module's own
// configuration blesses none).
var DenseWriteAnalyzer = &Analyzer{
	Name: "densewrite",
	Doc:  "func literals in parallel packages must not write shared dense vectors",
	Run:  runDenseWrite,
}

func runDenseWrite(pass *Pass) []Diagnostic {
	cfg := pass.Config
	if cfg.DenseTypePackage == "" || !hasPath(cfg.ParallelPackages, pass.PkgPath) {
		return nil
	}
	blessed := make(map[string]bool)
	for _, name := range cfg.BlessedDenseWriters[pass.PkgPath] {
		blessed[name] = true
	}
	var diags []Diagnostic
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || blessed[fd.Name.Name] {
				continue
			}
			// Collect the function's literals once, then attribute each
			// write site to its innermost enclosing literal, so nested
			// literals report exactly once.
			var lits []*ast.FuncLit
			ast.Inspect(fd, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					lits = append(lits, fl)
				}
				return true
			})
			if len(lits) == 0 {
				continue
			}
			check := func(lhs ast.Expr) {
				if fl := innermostLit(lits, lhs.Pos()); fl != nil {
					checkDenseWrite(pass, fl, lhs, &diags)
				}
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						check(lhs)
					}
				case *ast.IncDecStmt:
					check(n.X)
				}
				return true
			})
		}
	}
	return diags
}

// checkDenseWrite flags lhs when it writes an element of a dense vector
// whose root variable is declared outside the enclosing literal.
// Literal-local scratch (including parameters of the literal) stays
// exempt: only shared state can race the pipeline.
func checkDenseWrite(pass *Pass, fl *ast.FuncLit, lhs ast.Expr, diags *[]Diagnostic) {
	idx := denseIndexTarget(pass, lhs)
	if idx == nil {
		return
	}
	root := rootIdent(idx.X)
	if root == nil || root.Name == "_" {
		return
	}
	v, ok := objOf(pass, root).(*types.Var)
	if !ok || within(fl, v) {
		return
	}
	pass.report(diags, "densewrite", lhs.Pos(),
		"func literal writes shared dense vector %s outside the blessed store-queue path; route the write through the segment-publishing merge drain or bless the enclosing function",
		exprString(idx.X))
}

// denseIndexTarget unwraps lhs to the index expression whose operand is
// the configured dense vector type, or nil when lhs writes nothing
// dense.
func denseIndexTarget(pass *Pass, lhs ast.Expr) *ast.IndexExpr {
	for {
		switch x := lhs.(type) {
		case *ast.ParenExpr:
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		case *ast.SelectorExpr:
			lhs = x.X
		case *ast.IndexExpr:
			if isDenseType(pass, x.X) {
				return x
			}
			lhs = x.X
		default:
			return nil
		}
	}
}

// isDenseType reports whether e's type is the named dense vector type
// from the configuration.
func isDenseType(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil &&
		obj.Pkg().Path() == pass.Config.DenseTypePackage &&
		obj.Name() == pass.Config.DenseTypeName
}

// innermostLit returns the smallest function literal whose source range
// contains pos, or nil when pos sits outside every literal (top-level
// writes are always allowed).
func innermostLit(lits []*ast.FuncLit, pos token.Pos) *ast.FuncLit {
	var best *ast.FuncLit
	for _, fl := range lits {
		if fl.Pos() <= pos && pos < fl.End() {
			if best == nil || fl.Pos() > best.Pos() {
				best = fl
			}
		}
	}
	return best
}
