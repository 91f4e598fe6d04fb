package narrowing_test

import (
	"testing"

	"bayeslsh/internal/analysis/analysistest"
	"bayeslsh/internal/analysis/narrowing"
)

func TestNarrowing(t *testing.T) {
	analysistest.Run(t, narrowing.Analyzer, "testdata/src/narrowing", "narrowing")
}
