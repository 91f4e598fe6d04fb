package bayeslsh_test

import (
	"context"
	"testing"

	"bayeslsh"
	"bayeslsh/internal/harness"
	"bayeslsh/internal/rescache"
)

// Planner/cache micro-benchmarks, run by hand: what one plan decision
// costs, and what a served query costs when the result cache answers
// it.

// BenchmarkAutoPlan measures one ChoosePlan decision over real
// collected statistics — the price every AutoPipeline build or
// plan-cache miss pays. Thresholds cycle across buckets so the
// measurement covers rule paths, not one memoized branch.
func BenchmarkAutoPlan(b *testing.B) {
	ds := harness.ProfileDataset(b, harness.Profiles()[0], bayeslsh.Cosine)
	st := ds.CorpusStats()
	thresholds := []float64{0.35, 0.5, 0.65, 0.8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := bayeslsh.ChoosePlan(st, bayeslsh.PlanQuery{
			Measure:   bayeslsh.Measure(i % 3),
			Threshold: thresholds[i%len(thresholds)],
			K:         i % 2 * 10,
			Serving:   true,
		})
		if len(plan.Rules) == 0 {
			b.Fatal("no rules fired")
		}
	}
}

// BenchmarkCachedQuery measures the served-query fast path when the
// result cache holds the answer, against the same query answered by
// the index on every call — the two sides of the hit/miss economics
// that -cache-size buys.
func BenchmarkCachedQuery(b *testing.B) {
	ds := harness.ProfileDataset(b, harness.Profiles()[0], bayeslsh.Cosine)
	ix, err := bayeslsh.NewLiveIndex(ds, bayeslsh.Cosine, bayeslsh.EngineConfig{Seed: 7, Parallelism: 2}, bayeslsh.Options{
		AutoPipeline: true, Threshold: 0.6,
	}, bayeslsh.LiveConfig{MaxDelta: -1, MaxRatio: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	q := ds.Vector(3)
	ctx := context.Background()

	b.Run("Hit", func(b *testing.B) {
		c := rescache.New(ix, 64)
		if _, err := c.QueryContext(ctx, q, bayeslsh.QueryOptions{}); err != nil {
			b.Fatal(err) // warm the entry; every timed call is a hit
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.QueryContext(ctx, q, bayeslsh.QueryOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.QueryContext(ctx, q, bayeslsh.QueryOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
