package allpairs

import (
	"context"
	"testing"

	"bayeslsh/internal/dataset"
	"bayeslsh/internal/exact"
)

func BenchmarkSearchCosine(b *testing.B) {
	c, err := dataset.Generate(dataset.Spec{
		Name: "bench", Kind: dataset.Text,
		N: 1000, Dim: 5000, AvgLen: 50, ZipfS: 1.05,
		ClusterFrac: 0.3, ClusterSize: 4, MutationRate: 0.25, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	w := c.TfIdf().Normalize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Search(w, 0.7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCandidatesCosine(b *testing.B) {
	c, err := dataset.Generate(dataset.Spec{
		Name: "bench", Kind: dataset.Text,
		N: 1000, Dim: 5000, AvgLen: 50, ZipfS: 1.05,
		ClusterFrac: 0.3, ClusterSize: 4, MutationRate: 0.25, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	w := c.TfIdf().Normalize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Candidates(w, 0.7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCandidatesJaccardGraph is the candidate scan of the Jaccard
// pipelines on an Orkut-shaped corpus, build and probe phases on one
// worker.
func BenchmarkCandidatesJaccardGraph(b *testing.B) {
	c := graphCorpus(b, 8000, 76, 7)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CandidatesMeasureCtx(ctx, c, exact.Jaccard, 0.5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildIndexJaccardGraph is the sequential half alone: input
// mapping, ranks and processing order, and the index build.
func BenchmarkBuildIndexJaccardGraph(b *testing.B) {
	c := graphCorpus(b, 8000, 76, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildIndexMeasure(c, exact.Jaccard, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}
