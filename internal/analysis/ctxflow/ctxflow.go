// Package ctxflow enforces the cancellation contract PR 4 plumbed
// through every layer: once a function has a context.Context, that
// context (or one derived from it) must flow into every callee that
// can accept one. Calling the ctx-less twin of a ...Context (public
// API) or ...Ctx (internal layers) function, or passing a fresh
// context.Background()/TODO(), silently detaches the
// callee from the caller's deadline and cancellation — the exact
// "dropped ctx" bug the server and cluster layers had to plumb
// around by hand.
package ctxflow

import (
	"go/ast"
	"go/types"

	"bayeslsh/internal/analysis"
)

// Analyzer implements the ctxflow contract.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "a function holding a ctx must pass it on: no context.Background()/TODO() and no ctx-less twin calls\n" +
		"Inside any function (or closure) that has a context.Context in scope, calls\n" +
		"to context.Background()/context.TODO() and calls to a callee F when an\n" +
		"FContext or FCtx variant exists are flagged: both detach the callee from the\n" +
		"caller's cancellation and deadline. Deliberate detach points (drain\n" +
		"timers, background supervisors) take //apsslint:allow ctxflow <reason>.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !hasCtxParam(pass.TypesInfo, fd.Type) {
				continue
			}
			checkBody(pass, fd.Body)
		}
	}
	return nil
}

// hasCtxParam reports whether the function type declares a
// context.Context parameter.
func hasCtxParam(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if tv, ok := info.Types[field.Type]; ok && analysis.IsContextType(tv.Type) {
			return true
		}
	}
	return false
}

// checkBody flags ctx drops anywhere in body, including inside
// closures: a closure nested in a ctx-holding function captures that
// ctx, so it is held to the same contract.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		if analysis.IsPkgFunc(fn, "context", "Background") || analysis.IsPkgFunc(fn, "context", "TODO") {
			pass.Reportf(call.Pos(),
				"context.%s() while a ctx is in scope: pass the caller's ctx (or derive with context.WithCancel/WithTimeout) so cancellation keeps flowing", fn.Name())
			return true
		}
		sig := fn.Type().(*types.Signature)
		if analysis.HasContextParam(sig) {
			return true
		}
		if twin := contextTwin(pass.TypesInfo, fn); twin != nil {
			pass.Reportf(call.Pos(),
				"calling %s drops the in-scope ctx: call %s(ctx, ...) instead", fn.Name(), twin.Name())
		}
		return true
	})
}

// twinSuffixes are the two spellings of "the same operation, taking a
// ctx": the public API's and the internal layers'.
var twinSuffixes = []string{"Context", "Ctx"}

// contextTwin returns the FContext or FCtx sibling of fn — a function
// or method of the same package/receiver named fn.Name() plus one of
// twinSuffixes whose signature takes a context.Context — or nil.
func contextTwin(info *types.Info, fn *types.Func) *types.Func {
	if fn.Pkg() == nil {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	for _, suffix := range twinSuffixes {
		name := fn.Name() + suffix
		var obj types.Object
		if recv := sig.Recv(); recv != nil {
			obj, _, _ = types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), name)
		} else {
			obj = fn.Pkg().Scope().Lookup(name)
		}
		twin, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if tsig, ok := twin.Type().(*types.Signature); ok && analysis.HasContextParam(tsig) {
			return twin
		}
	}
	return nil
}
