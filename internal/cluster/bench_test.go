package cluster_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"bayeslsh"
	"bayeslsh/internal/cluster"
	"bayeslsh/internal/harness"
)

// BenchmarkShardedQuery measures the scatter-gather query path at 1
// shard (pure router overhead over a single LiveIndex) and 4 shards
// (fan-out, per-shard contexts, k-way gather), reporting req/s with
// p50/p99 latencies. It runs by hand; the gated sharded-serving
// numbers are bench/'s serve_sharded workload.
func BenchmarkShardedQuery(b *testing.B) {
	ds, maps := harness.Corpus(b, bayeslsh.Cosine, 1000)
	opts := bayeslsh.Options{Algorithm: bayeslsh.LSHBayesLSH, Threshold: 0.6}
	queries := make([]bayeslsh.Vec, 64)
	for i := range queries {
		queries[i] = bayeslsh.NewVec(maps[i*7%len(maps)])
	}
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			r, err := cluster.NewLocal(ds, bayeslsh.Cosine, harness.EngineConfig(), opts,
				harness.LiveConfig(), shards, cluster.Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()

			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if _, err := r.Query(queries[i%len(queries)], bayeslsh.QueryOptions{}); err != nil {
					b.Fatal(err)
				}
				lat = append(lat, time.Since(start))
			}
			b.StopTimer()

			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			var sum time.Duration
			for _, d := range lat {
				sum += d
			}
			b.ReportMetric(float64(b.N)/sum.Seconds(), "req/s")
			b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns/req")
			b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns/req")
		})
	}
}
