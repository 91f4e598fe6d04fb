// Benchmarks of the live (ingest-while-serving) index, run by hand
// (the gated live-serving numbers are bench/'s serve_mixed workload):
//
//	go test -bench Live -benchmem
//
// BenchmarkLiveAdd is steady-state ingest throughput (adds/s, merges
// disabled), BenchmarkLiveMerge is the cost of folding a full delta
// into the base, BenchmarkLiveQueryUnderIngest is query latency —
// p50 reported — while a writer goroutine ingests continuously, and
// BenchmarkLiveJaccardAddQuery is query latency on the Jaccard
// full-BayesLSH pipeline right after an Add refits the prior.
// docs/LIVE.md quotes the numbers from a reference run.
package bayeslsh_test

import (
	"sort"
	"testing"
	"time"

	"bayeslsh"
)

// benchLive builds a live index over the synthetic RCV1 analogue with
// a pool of held-out vectors to ingest.
func benchLive(b *testing.B, lc bayeslsh.LiveConfig) (*bayeslsh.LiveIndex, *bayeslsh.Dataset, []bayeslsh.Vec) {
	b.Helper()
	ds, err := bayeslsh.Synthetic("RCV1-sim")
	if err != nil {
		b.Fatal(err)
	}
	ds = ds.TfIdf().Normalize()
	li, err := bayeslsh.NewLiveIndex(ds, bayeslsh.Cosine,
		bayeslsh.EngineConfig{Seed: 42, Parallelism: 1},
		bayeslsh.Options{Algorithm: bayeslsh.LSHBayesLSH, Threshold: 0.7}, lc)
	if err != nil {
		b.Fatal(err)
	}
	// Reingest corpus vectors as the add stream: realistic sparsity,
	// no synthesis cost inside the timed loop.
	pool := make([]bayeslsh.Vec, ds.Len())
	for i := range pool {
		pool[i] = ds.Vector(i)
	}
	return li, ds, pool
}

// BenchmarkLiveAdd measures ingest throughput with merges disabled:
// one iteration hashes and indexes one vector into the delta segment.
func BenchmarkLiveAdd(b *testing.B) {
	li, _, pool := benchLive(b, bayeslsh.LiveConfig{MaxDelta: -1, MaxRatio: -1})
	defer li.Close()
	// One untimed Add pays the one-time first-ingest costs, so
	// iterations measure steady ingest. The pool repeats, so projection
	// rows for its features are generated on the first lap only.
	if _, err := li.Add(pool[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := li.Add(pool[i%len(pool)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "adds/s")
}

// BenchmarkLiveMerge measures the background fold: each iteration
// ingests 512 vectors with merging off, then compacts them (plus 64
// tombstones) into a fresh base. The reported time is dominated by
// the merge itself — ingest is orders of magnitude cheaper (see
// BenchmarkLiveAdd).
func BenchmarkLiveMerge(b *testing.B) {
	li, ds, pool := benchLive(b, bayeslsh.LiveConfig{MaxDelta: -1, MaxRatio: -1})
	defer li.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 512; j++ {
			if _, err := li.Add(pool[(i*512+j)%len(pool)]); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < 64; j++ {
			li.Delete((i*64 + j) % ds.Len())
		}
		b.StartTimer()
		li.Compact()
	}
	if st := li.Stats(); st.Merges != int64(b.N) {
		b.Fatalf("%d merges for %d iterations", st.Merges, b.N)
	}
}

// BenchmarkLiveQueryUnderIngest measures query latency while a
// background writer ingests continuously (policy-triggered merges
// on): each iteration is one Query; the p50 over all iterations is
// reported alongside Go's mean ns/op.
func BenchmarkLiveQueryUnderIngest(b *testing.B) {
	li, _, pool := benchLive(b, bayeslsh.LiveConfig{MaxDelta: 1024})
	defer li.Close()
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := li.Add(pool[i%len(pool)]); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	if _, err := li.Query(pool[0], bayeslsh.QueryOptions{}); err != nil {
		b.Fatal(err)
	}
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := li.Query(pool[i%len(pool)], bayeslsh.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	close(stop)
	<-writerDone
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns/query")
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns/query")
}

// BenchmarkLiveJaccardAddQuery alternates Add and Query on a Jaccard
// LSH+BayesLSH live index, merges disabled, and times the queries.
// Every Add refits the corpus-wide prior, so each Query verifies under
// a prior no earlier one used and pays the decision tables' cold cost.
func BenchmarkLiveJaccardAddQuery(b *testing.B) {
	ds, err := bayeslsh.Synthetic("RCV1-sim")
	if err != nil {
		b.Fatal(err)
	}
	ds = ds.Binarize().Slice(0, 1000)
	li, err := bayeslsh.NewLiveIndex(ds, bayeslsh.Jaccard,
		bayeslsh.EngineConfig{Seed: 42, Parallelism: 1},
		bayeslsh.Options{Algorithm: bayeslsh.LSHBayesLSH, Threshold: 0.5},
		bayeslsh.LiveConfig{MaxDelta: -1, MaxRatio: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer li.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := li.Add(ds.Vector(i % ds.Len())); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := li.Query(ds.Vector((7*i+3)%ds.Len()), bayeslsh.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
