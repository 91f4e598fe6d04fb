// Package narrowing flags the 32-bit wrap: int(x) of a uint32 or
// uint64 operand compared or used as an index or slice bound. int is
// 32 bits wide on 386 and arm, where such a conversion turns a uint32
// at or above 2³¹ negative and drops a uint64's high word — so a
// hostile count or feature index passes a bounds check, or selects an
// in-range element, that it fails on amd64. Compare in the unsigned
// type instead (uint64(x) >= uint64(n)), and convert only after the
// bound holds.
package narrowing

import (
	"go/ast"
	"go/token"
	"go/types"

	"bayeslsh/internal/analysis"
)

// Analyzer implements the narrowing contract.
var Analyzer = &analysis.Analyzer{
	Name: "narrowing",
	Doc: "no int(x) of a uint32/uint64 inside a comparison or an index bound\n" +
		"int is 32 bits on 386 and arm: int(x) of a uint32 ≥ 2³¹ is negative and\n" +
		"int(x) of a uint64 drops its high word, so a bound checked after the\n" +
		"conversion passes values it rejects on amd64. Compare in the unsigned\n" +
		"type, e.g. uint64(x) >= uint64(n), and convert once the bound holds.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				switch n.Op {
				case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
					check(pass, n.X, "in a comparison")
					check(pass, n.Y, "in a comparison")
				}
			case *ast.IndexExpr:
				check(pass, n.Index, "as an index")
			case *ast.SliceExpr:
				check(pass, n.Low, "as a slice bound")
				check(pass, n.High, "as a slice bound")
				check(pass, n.Max, "as a slice bound")
			}
			return true
		})
	}
	return nil
}

// check reports e when it is a non-constant int(x) conversion of a
// uint32 or uint64 operand.
func check(pass *analysis.Pass, e ast.Expr, use string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return
	}
	if fun, ok := pass.TypesInfo.Types[call.Fun]; !ok || !fun.IsType() || !types.Identical(fun.Type, types.Typ[types.Int]) {
		return
	}
	arg, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || arg.Value != nil {
		return // constants are range-checked by the compiler
	}
	b, ok := arg.Type.Underlying().(*types.Basic)
	if !ok || (b.Kind() != types.Uint32 && b.Kind() != types.Uint64) {
		return
	}
	pass.Reportf(call.Pos(),
		"int(%s) of a %s %s wraps where int is 32 bits: bound it in the unsigned type first",
		types.ExprString(call.Args[0]), b.Name(), use)
}
