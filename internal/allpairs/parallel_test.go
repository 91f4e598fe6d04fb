package allpairs

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"bayeslsh/internal/dataset"
	"bayeslsh/internal/exact"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/shard"
	"bayeslsh/internal/testutil"
	"bayeslsh/internal/vector"
)

// TestCandidatesParallelMatchesSequential: for every worker count and
// kind of never-canceled context the sharded scan's candidate stream
// is identical to the interleaved scan's, pair for pair.
func TestCandidatesParallelMatchesSequential(t *testing.T) {
	c := testutil.SmallTextCorpus(t, 400, 9)
	for _, th := range []float64{0.5, 0.7, 0.9} {
		want, err := Candidates(c, th)
		if err != nil {
			t.Fatal(err)
		}
		for name, ctx := range testutil.Contexts(t) {
			for _, workers := range []int{1, 2, 4, 7} {
				got, err := CandidatesMeasureCtx(ctx, c, exact.Cosine, th, workers)
				if err != nil {
					t.Fatal(err)
				}
				testutil.RequireSameSequence(t, name, got, want)
			}
		}
	}
}

// searchCollect runs SearchMeasureStream collected in slot order
// through the shard sink; a failed search returns (nil, err).
func searchCollect(ctx context.Context, c *vector.Collection, m exact.Measure, th float64, workers, batch int) ([]pair.Result, error) {
	var sink shard.Slots[pair.Result]
	if err := SearchMeasureStream(ctx, c, m, th, workers, batch, sink.Put); err != nil {
		return nil, err
	}
	return sink.Flat(), nil
}

// TestSearchParallelMatchesSequential is the same guarantee for the
// verified result stream collected in slot order.
func TestSearchParallelMatchesSequential(t *testing.T) {
	c := testutil.SmallTextCorpus(t, 400, 10)
	for _, th := range []float64{0.5, 0.7, 0.9} {
		want, err := Search(c, th)
		if err != nil {
			t.Fatal(err)
		}
		for name, ctx := range testutil.Contexts(t) {
			for _, workers := range []int{1, 2, 4, 7} {
				got, err := searchCollect(ctx, c, exact.Cosine, th, workers, 64)
				if err != nil {
					t.Fatal(err)
				}
				testutil.RequireSameSequence(t, name, got, want)
			}
		}
	}
}

// TestSearchMeasureParallelMatchesBruteForce covers the binary
// measures, whose verification phase is sharded in batches as well.
func TestSearchMeasureParallelMatchesBruteForce(t *testing.T) {
	c := testutil.SmallBinaryCorpus(t, 300, 12)
	for _, m := range []exact.Measure{exact.Jaccard, exact.BinaryCosine} {
		th := 0.5
		want := exact.Search(c, m, th)
		for _, ctx := range testutil.Contexts(t) {
			for _, workers := range []int{1, 2, 4, 7} {
				for _, batch := range []int{1, 64, 1 << 20} {
					got, err := searchCollect(ctx, c, m, th, workers, batch)
					if err != nil {
						t.Fatal(err)
					}
					testutil.RequireSameResults(t, got, want, 1e-12)
				}
			}
		}
	}
}

func TestParallelRejectsBadInput(t *testing.T) {
	ctx := context.Background()
	c := testutil.SmallTextCorpus(t, 50, 3)
	if _, err := CandidatesMeasureCtx(ctx, c, exact.Cosine, 1.5, 4); err == nil {
		t.Error("threshold 1.5 accepted")
	}
	if _, err := searchCollect(ctx, c, exact.Cosine, 0, 4, 64); err == nil {
		t.Error("threshold 0 accepted")
	}
	if _, err := searchCollect(ctx, c, exact.Measure(9), 0.5, 4, 64); err == nil {
		t.Error("unknown measure accepted")
	}
}

// scanDrivers are the sharded entry points, and the search collected
// and streamed, with a uniform shape.
func scanDrivers(c *vector.Collection, th float64) map[string]func(context.Context) (int, error) {
	return map[string]func(context.Context) (int, error){
		"candidates": func(ctx context.Context) (int, error) {
			ps, err := CandidatesMeasureCtx(ctx, c, exact.Cosine, th, 4)
			return len(ps), err
		},
		"search": func(ctx context.Context) (int, error) {
			rs, err := searchCollect(ctx, c, exact.Cosine, th, 4, 64)
			return len(rs), err
		},
		"stream": func(ctx context.Context) (int, error) {
			n := 0
			err := SearchMeasureStream(ctx, c, exact.Cosine, th, 4, 64, func(_ int, rs []pair.Result) error {
				n += len(rs)
				return nil
			})
			return n, err
		},
	}
}

// TestScanPreCanceled: under a dead context no probe runs and nothing
// is returned or emitted.
func TestScanPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := testutil.SmallTextCorpus(t, 400, 9)
	for name, run := range scanDrivers(c, 0.5) {
		if n, err := run(ctx); !errors.Is(err, context.Canceled) || n != 0 {
			t.Errorf("%s under a dead context: %d items, err %v", name, n, err)
		}
	}
}

// TestScanCancelMidRun lets a deadline expire inside a scan that takes
// far longer than the deadline, and requires ctx.Err(), no collected
// output and every probe worker drained.
func TestScanCancelMidRun(t *testing.T) {
	raw, err := dataset.Generate(dataset.Spec{
		Name: "cancel", Kind: dataset.Text,
		N: 4000, Dim: 3000, AvgLen: 60, ZipfS: 1.05,
		ClusterFrac: 0.4, ClusterSize: 3, MutationRate: 0.25, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := raw.TfIdf().Normalize()
	for name, run := range scanDrivers(c, 0.2) {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		n, err := run(ctx)
		cancel()
		// A stream may have delivered verified batches before the cut.
		if !errors.Is(err, context.DeadlineExceeded) || (n != 0 && name != "stream") {
			t.Errorf("%s: %d items, err %v", name, n, err)
		}
		testutil.RequireNoGoroutineLeak(t, base)
	}
}
