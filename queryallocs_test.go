package bayeslsh

import (
	"context"
	"testing"
)

// TestQueryAllocations pins the allocation count of one warm point
// query for every signature kind and verifier variant: a QueryContext
// over the RCV1-shaped corpus, averaged over 200 corpus vectors whose
// signatures and candidates the warm-up pass has already paid. The
// candidate probe draws its id-set and scratch from a pool and
// allocates only its exact-size result, so what a query allocates is
// its signature, the verifier's scratch and the matches, not a growing
// map per probe. Each pipeline is measured on a heap-built index and on
// the same index reopened from a v3 snapshot; each bound is the count
// measured when it was set. The cosine LSHBayesLSH row keeps the bare
// heap and v3 subtest names.
func TestQueryAllocations(t *testing.T) {
	raw := testDataset(t)
	cosine := testDataset(t).TfIdf().Normalize()
	const queries = 200
	for _, c := range []struct {
		name    string
		ds      *Dataset
		measure Measure
		opts    Options
		limit   float64
	}{
		{"", cosine, Cosine, Options{Algorithm: LSHBayesLSH, Threshold: 0.7}, 11},
		{"jaccard/bayes", raw, Jaccard, Options{Algorithm: LSHBayesLSH, Threshold: 0.5}, 11},
		{"jaccard/onebit", raw, Jaccard, Options{Algorithm: LSHBayesLSH, Threshold: 0.5, OneBitMinhash: true}, 11},
		{"jaccard/lite", raw, Jaccard, Options{Algorithm: LSHBayesLSHLite, Threshold: 0.5}, 12},
		{"binary-cosine/bayes", raw, BinaryCosine, Options{Algorithm: LSHBayesLSH, Threshold: 0.7}, 11},
		{"jaccard/approx", raw, Jaccard, Options{Algorithm: LSHApprox, Threshold: 0.5}, 8},
	} {
		heap, err := NewIndex(c.ds, c.measure, EngineConfig{Seed: 42, Parallelism: 1}, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			name string
			ix   *Index
		}{
			{"heap", heap},
			{"v3", openV3(t, heap)},
		} {
			name := r.name
			if c.name != "" {
				name = c.name + "/" + r.name
			}
			t.Run(name, func(t *testing.T) {
				ctx := context.Background()
				query := func(i int) {
					if _, err := r.ix.QueryContext(ctx, c.ds.Vector(i%queries), QueryOptions{}); err != nil {
						t.Fatal(err)
					}
				}
				for i := range queries {
					query(i)
				}
				i := 0
				got := testing.AllocsPerRun(queries, func() { query(i); i++ })
				if got > c.limit {
					t.Errorf("%.1f allocations per warm query, want at most %.0f", got, c.limit)
				}
				t.Logf("%.1f allocations per warm query", got)
			})
		}
	}
}
