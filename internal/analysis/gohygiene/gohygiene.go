// Package gohygiene flags raw go statements outside the sanctioned
// concurrency layer. Every goroutine in the serving path must run
// inside the internal/shard pool primitives (Run/RunCtx/StreamCtx,
// Coalescer), which carry the cancellation and
// goroutine-leak accounting the PR 4 and PR 6 harnesses verify; a
// raw `go` statement anywhere else escapes that accounting.
package gohygiene

import (
	"go/ast"
	"strings"

	"bayeslsh/internal/analysis"
)

// poolPackage is the one package allowed to create goroutines freely:
// it is the concurrency substrate itself.
const poolPackage = "bayeslsh/internal/shard"

// allowedFiles are lifecycle files permitted to spawn supervision
// goroutines directly (matched by path suffix): process-level signal
// and drain plumbing that exists exactly once and is torn down with
// the process, so pool accounting adds nothing.
var allowedFiles = []string{}

// Analyzer implements the gohygiene contract.
var Analyzer = &analysis.Analyzer{
	Name: "gohygiene",
	Doc: "goroutines only via internal/shard pools (leak accounting); raw go statements elsewhere need //apsslint:allow\n" +
		"Raw go statements outside internal/shard escape the pool's cancellation and\n" +
		"goroutine-leak accounting that the serving harnesses verify. Use shard.RunCtx/\n" +
		"StreamCtx or shard.NewCoalescer, or justify the\n" +
		"exception with //apsslint:allow gohygiene <reason>. _test.go files are exempt:\n" +
		"test harnesses drive concurrency on purpose.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == poolPackage {
		return nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		filename := pass.Fset.Position(f.Pos()).Filename
		if allowedFile(filename) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"raw go statement outside internal/shard: use the shard pool primitives (Run/RunCtx/StreamCtx, Coalescer) so the goroutine is counted and canceled, or add //apsslint:allow gohygiene <reason>")
			}
			return true
		})
	}
	return nil
}

func allowedFile(name string) bool {
	for _, suffix := range allowedFiles {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}
