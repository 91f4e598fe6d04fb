package bayeslsh

import (
	"context"
	"testing"
)

// TestQueryAllocations pins the allocation count of one warm point
// query: a cosine LSHBayesLSH QueryContext over the RCV1-shaped corpus
// at t = 0.7, averaged over 200 corpus vectors whose signatures and
// candidates the warm-up pass has already paid. The candidate probe
// draws its id-set and scratch from a pool and allocates only its
// exact-size result, so what a query allocates is its signature, the
// verifier's scratch and the matches, not a growing map per probe. A
// heap-built index and the same index reopened from a v3 snapshot are
// both measured.
func TestQueryAllocations(t *testing.T) {
	ds := testDataset(t).TfIdf().Normalize()
	heap, err := NewIndex(ds, Cosine, EngineConfig{Seed: 42, Parallelism: 1}, Options{Algorithm: LSHBayesLSH, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	const queries = 200
	for _, c := range []struct {
		name  string
		ix    *Index
		limit float64
	}{
		{"heap", heap, 14},
		{"v3", openV3(t, heap), 17},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			query := func(i int) {
				if _, err := c.ix.QueryContext(ctx, ds.Vector(i%queries), QueryOptions{}); err != nil {
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
