// Package detrand keeps ambient nondeterminism — wall clocks and
// globally-seeded PRNGs — out of the result-producing packages. The
// determinism contract (PR 1, re-proven by every harness since):
// results are bit-identical at any Parallelism/BatchSize/shard count
// for a fixed seed. math/rand's global functions and time-derived
// seeds break that silently; all randomness must be derived from the
// master seed via rng.Derive, and clocks may only feed the explicitly
// allowlisted stats/latency fields.
package detrand

import (
	"go/ast"

	"bayeslsh/internal/analysis"
)

// resultPackages are the packages whose outputs feed query results;
// inside them, ambient randomness or clocks can change what the
// system answers.
var resultPackages = map[string]bool{
	"bayeslsh":                   true,
	"bayeslsh/internal/core":     true,
	"bayeslsh/internal/sighash":  true,
	"bayeslsh/internal/minhash":  true,
	"bayeslsh/internal/l2lsh":    true,
	"bayeslsh/internal/lshindex": true,
	"bayeslsh/internal/allpairs": true,
	"bayeslsh/internal/ppjoin":   true,
	"bayeslsh/internal/exact":    true,
	"bayeslsh/internal/live":     true,
	"bayeslsh/internal/cluster":  true,
	"bayeslsh/internal/pair":     true,
	"bayeslsh/internal/planner":  true,
	"bayeslsh/internal/rescache": true,
}

// clockAllowlist maps package path -> function or method names where
// time.Now/time.Since are sanctioned: they feed stats or latency
// fields that are documented as non-deterministic observability data
// and never influence which pairs are produced. Adding a function
// here is a declaration that every clock read in it lands in such a
// field — keep entries justified.
var clockAllowlist = map[string]map[string]bool{
	"bayeslsh": {
		"SearchContext":  true, // reads no clock itself; the analyzer's testdata pins this entry
		"stream":         true, // Output.VerifyTime for the single-phase pipelines
		"streamTwoPhase": true, // Output.CandGenTime / Output.VerifyTime
		"buildIndexCtx":  true, // IndexStats.BuildTime
		"mergeRun":       true, // LiveStats.LastMerge duration
	},
}

// forbiddenPkgs are import paths whose direct use is flagged
// wholesale inside result packages.
var forbiddenPkgs = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// Analyzer implements the detrand contract.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "no math/rand or wall clocks in result-producing packages; randomness flows from rng.Derive\n" +
		"Results must be bit-identical for a fixed seed at any parallelism, so the\n" +
		"packages that produce them may not consult math/rand (globally seeded,\n" +
		"schedule-dependent) or time.Now/time.Since outside the allowlisted stats\n" +
		"functions. Derive per-work-item seeds with rng.Derive(seed, ids...) and\n" +
		"construct generators with rng.New. _test.go files are exempt.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !resultPackages[pass.Pkg.Path()] {
		return nil
	}
	allowed := clockAllowlist[pass.Pkg.Path()]
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			inAllowedFunc := allowed[fd.Name.Name]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := analysis.Callee(pass.TypesInfo, call)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				switch {
				case forbiddenPkgs[fn.Pkg().Path()]:
					pass.Reportf(call.Pos(),
						"%s.%s in result-producing package %s: randomness must be derived from the master seed (rng.Derive / rng.New), never from %s",
						fn.Pkg().Name(), fn.Name(), pass.Pkg.Path(), fn.Pkg().Path())
				case analysis.IsPkgFunc(fn, "time", "Now") || analysis.IsPkgFunc(fn, "time", "Since"):
					if !inAllowedFunc {
						pass.Reportf(call.Pos(),
							"time.%s in result-producing package %s outside the stats allowlist: clocks may only feed declared stats/latency fields (detrand.clockAllowlist), results must not depend on wall time",
							fn.Name(), pass.Pkg.Path())
					}
				}
				return true
			})
		}
	}
	return nil
}
