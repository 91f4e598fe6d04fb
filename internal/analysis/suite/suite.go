// Package suite registers the project's contract analyzers in the
// order they are run and reported. It exists apart from
// internal/analysis so the framework does not import its own
// analyzers (the analyzers import the framework).
package suite

import (
	"bayeslsh/internal/analysis"
	"bayeslsh/internal/analysis/ctxflow"
	"bayeslsh/internal/analysis/detrand"
	"bayeslsh/internal/analysis/errwrap"
	"bayeslsh/internal/analysis/gohygiene"
	"bayeslsh/internal/analysis/mapiter"
	"bayeslsh/internal/analysis/narrowing"
)

// Analyzers returns the full apsslint suite.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		mapiter.Analyzer,
		detrand.Analyzer,
		ctxflow.Analyzer,
		errwrap.Analyzer,
		gohygiene.Analyzer,
		narrowing.Analyzer,
	}
}
