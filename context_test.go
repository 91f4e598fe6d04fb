package bayeslsh

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"
)

// The cancellation matrix: every public entry point, for every
// pipeline, must (a) return an error wrapping context.Canceled or
// context.DeadlineExceeded when its context dies — before any work
// for a pre-canceled context, promptly when canceled mid-search —
// (b) leak no goroutines doing so, and (c) behave bit-identically to
// the non-ctx entry points while the context stays alive.

// cancelCases is the measure × threshold matrix the context tests run
// over; Algorithms(measure) + BruteForce then covers all 8 pipelines.
var cancelCases = []struct {
	measure Measure
	t       float64
}{
	{Cosine, 0.7},
	{Jaccard, 0.5},
}

// cancelTestEngine builds an engine over a trimmed corpus.
func cancelTestEngine(t *testing.T, m Measure, n, workers int) *Engine {
	t.Helper()
	ds := smallDataset(t, n)
	if m == Cosine {
		ds = ds.TfIdf().Normalize()
	} else {
		ds = ds.Binarize()
	}
	eng, err := NewEngine(ds, m, EngineConfig{Seed: 42, Parallelism: workers})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// requireCanceled fails unless err wraps context.Canceled or
// context.DeadlineExceeded.
func requireCanceled(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("expected a cancellation error, got nil")
	}
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v wraps neither context.Canceled nor context.DeadlineExceeded", err)
	}
}

// requireNoGoroutineLeak polls until the goroutine count returns to
// the recorded baseline, dumping all stacks on timeout. (Counts can
// transiently exceed the baseline while canceled workers drain; they
// must settle.)
func requireNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSearchContextPreCanceled: a context canceled before the call
// returns ctx.Err() immediately — before candidate generation or
// hashing — for every one of the 8 pipelines, and Stream yields
// exactly one (zero, error) element.
func TestSearchContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cancelCases {
		eng := cancelTestEngine(t, tc.measure, 200, 2)
		for _, alg := range append(Algorithms(tc.measure), BruteForce) {
			t.Run(fmt.Sprintf("%v/%v", tc.measure, alg), func(t *testing.T) {
				opts := Options{Algorithm: alg, Threshold: tc.t}
				if _, err := eng.SearchContext(ctx, opts); true {
					requireCanceled(t, err)
				}
				seen := 0
				for r, err := range eng.Stream(ctx, opts) {
					seen++
					if r != (Result{}) {
						t.Errorf("pre-canceled Stream yielded a pair: %+v", r)
					}
					requireCanceled(t, err)
				}
				if seen != 1 {
					t.Errorf("pre-canceled Stream yielded %d elements, want exactly 1 error", seen)
				}
			})
		}
	}
}

// TestStreamPreCanceledSkipsPlanning: a pre-canceled Stream with
// AutoPipeline on a fresh engine is refused before planning — the
// O(1) refusal, not a corpus-statistics pass — exactly as
// SearchContext refuses it.
func TestStreamPreCanceledSkipsPlanning(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := cancelTestEngine(t, Cosine, 200, 2)
	seen := 0
	for r, err := range eng.Stream(ctx, Options{AutoPipeline: true, Threshold: 0.7}) {
		seen++
		if r != (Result{}) {
			t.Errorf("pre-canceled Stream yielded a pair: %+v", r)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("pre-canceled Stream yielded %v, want an error wrapping context.Canceled", err)
		}
	}
	if seen != 1 {
		t.Errorf("pre-canceled Stream yielded %d elements, want exactly 1 error", seen)
	}
	if eng.pln != nil {
		t.Error("pre-canceled Stream collected corpus statistics for AutoPipeline")
	}
}

// TestSearchCancelableContextEqualsSearch: a live (cancelable but
// never canceled) context must not change anything — the ctx-aware
// code paths produce bit-identical Output for every pipeline.
func TestSearchCancelableContextEqualsSearch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range cancelCases {
		eng := cancelTestEngine(t, tc.measure, 600, 4)
		for _, alg := range append(Algorithms(tc.measure), BruteForce) {
			t.Run(fmt.Sprintf("%v/%v", tc.measure, alg), func(t *testing.T) {
				opts := Options{Algorithm: alg, Threshold: tc.t}
				want, err := eng.Search(opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.SearchContext(ctx, opts)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, want, got)
			})
		}
	}
}

// sortedResults orders results by (A, B) — the canonical order for
// comparing a stream (unordered by contract) against batch output.
func sortedResults(rs []Result) []Result {
	out := append([]Result(nil), rs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// TestStreamMatchesSearch: collected and sorted, the stream equals
// Search's result set exactly — pairs and similarities — for every
// measure × pipeline.
func TestStreamMatchesSearch(t *testing.T) {
	for _, tc := range cancelCases {
		eng := cancelTestEngine(t, tc.measure, 600, 4)
		for _, alg := range append(Algorithms(tc.measure), BruteForce) {
			t.Run(fmt.Sprintf("%v/%v", tc.measure, alg), func(t *testing.T) {
				opts := Options{Algorithm: alg, Threshold: tc.t}
				want, err := eng.Search(opts)
				if err != nil {
					t.Fatal(err)
				}
				var got []Result
				for r, err := range eng.Stream(context.Background(), opts) {
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, r)
				}
				ws, gs := sortedResults(want.Results), sortedResults(got)
				if len(ws) != len(gs) {
					t.Fatalf("stream delivered %d pairs, Search %d", len(gs), len(ws))
				}
				for i := range ws {
					if ws[i] != gs[i] {
						t.Fatalf("result %d: stream %+v, Search %+v", i, gs[i], ws[i])
					}
				}
			})
		}
	}
}

// TestSearchContextCancelMidSearch cancels a search that is already
// running and requires a prompt, leak-free abort. BruteForce over the
// full corpus guarantees the search is still in its O(n²)
// verification when the cancel lands; the Bayes pipeline exercises
// the kernel's between-rounds abort.
func TestSearchContextCancelMidSearch(t *testing.T) {
	cases := []struct {
		name    string
		measure Measure
		opts    Options
	}{
		{"bruteforce", Cosine, Options{Algorithm: BruteForce, Threshold: 0.5}},
		{"lsh-bayes", Cosine, Options{Algorithm: LSHBayesLSH, Threshold: 0.5}},
		{"ap-bayes-lite", Jaccard, Options{Algorithm: AllPairsBayesLSHLite, Threshold: 0.3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := cancelTestEngine(t, tc.measure, 4000, 4)
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(20 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			out, err := eng.SearchContext(ctx, tc.opts)
			elapsed := time.Since(start)
			if err == nil {
				// The search outran the cancel — possible on a fast
				// machine; the equality tests cover this path.
				t.Skipf("search finished in %v before the cancel landed (%d pairs)", elapsed, len(out.Results))
			}
			requireCanceled(t, err)
			if out != nil {
				t.Error("canceled search returned a partial Output")
			}
			// Prompt: far below what the full search would take, even
			// under the race detector.
			if elapsed > 3*time.Second {
				t.Errorf("canceled search returned only after %v", elapsed)
			}
			requireNoGoroutineLeak(t, base)
		})
	}
}

// TestStreamCancelAndBreak covers the stream's two teardown paths:
// ctx canceled mid-iteration (the iterator must end with exactly one
// error element) and the consumer breaking out early (no error, no
// leaked pipeline goroutines either way).
func TestStreamCancelAndBreak(t *testing.T) {
	t.Run("cancel-mid-stream", func(t *testing.T) {
		eng := cancelTestEngine(t, Cosine, 4000, 4)
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var pairs int
		var lastErr error
		for r, err := range eng.Stream(ctx, Options{Algorithm: BruteForce, Threshold: 0.5}) {
			if err != nil {
				lastErr = err
				continue
			}
			_ = r
			pairs++
			if pairs == 1 {
				cancel() // first pair seen: kill the pipeline under it
			}
		}
		if lastErr == nil {
			t.Skip("stream drained before the cancel propagated")
		}
		requireCanceled(t, lastErr)
		requireNoGoroutineLeak(t, base)
	})
	t.Run("break-early", func(t *testing.T) {
		eng := cancelTestEngine(t, Cosine, 1000, 4)
		base := runtime.NumGoroutine()
		seen := 0
		for _, err := range eng.Stream(context.Background(), Options{Algorithm: LSHBayesLSH, Threshold: 0.7}) {
			if err != nil {
				t.Fatalf("break-early stream yielded error: %v", err)
			}
			seen++
			if seen == 3 {
				break
			}
		}
		if seen != 3 {
			t.Fatalf("expected to break after 3 pairs, saw %d", seen)
		}
		requireNoGoroutineLeak(t, base)
	})
	t.Run("deadline", func(t *testing.T) {
		eng := cancelTestEngine(t, Cosine, 4000, 4)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		_, err := eng.SearchContext(ctx, Options{Algorithm: BruteForce, Threshold: 0.5})
		if err == nil {
			t.Skip("search finished inside the deadline")
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
		}
	})
}

// querySurface is the query API Index and LiveIndex share.
type querySurface interface {
	Query(Vec, QueryOptions) ([]Match, error)
	QueryContext(context.Context, Vec, QueryOptions) ([]Match, error)
	TopK(Vec, int) ([]Match, error)
	TopKContext(context.Context, Vec, int) ([]Match, error)
	QueryBatch([]Vec, QueryOptions) ([][]Match, error)
	QueryBatchContext(context.Context, []Vec, QueryOptions) ([][]Match, error)
}

// namedSurface labels a querySurface for t.Run.
type namedSurface struct {
	name string
	q    querySurface
}

// querySurfaces returns ix and a live index over it whose delta is
// non-empty and masked: it holds copies of the listed corpus vectors,
// the first of them deleted again. Query-contract tests run every case
// over both, so each entry point of both types is covered.
func querySurfaces(t *testing.T, ix *Index, copies ...int) []namedSurface {
	t.Helper()
	li, err := LiveFrom(ix, LiveConfig{MaxDelta: -1, MaxRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(li.Close)
	for i, row := range copies {
		id, err := li.Add(ix.Dataset().Vector(row))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && !li.Delete(id) {
			t.Fatalf("Delete(%d) reported absent", id)
		}
	}
	return []namedSurface{{"index", ix}, {"live", li}}
}

// TestQueryContextCancellation: the query-serving entry points of
// Index and LiveIndex under pre-canceled and live contexts, for an LSH
// Bayes index and an AllPairs index (the two candidate sources).
func TestQueryContextCancellation(t *testing.T) {
	cases := []struct {
		name    string
		measure Measure
		opts    Options
	}{
		{"lsh-bayes", Cosine, Options{Algorithm: LSHBayesLSH, Threshold: 0.7}},
		{"ap-lite", Jaccard, Options{Algorithm: AllPairsBayesLSHLite, Threshold: 0.5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := cancelTestEngine(t, tc.measure, 400, 2)
			ix, err := eng.BuildIndex(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range querySurfaces(t, ix, 2, 1, 7, 11) {
				t.Run(s.name, func(t *testing.T) {
					checkQueryContext(t, s.q, ix.Dataset())
				})
			}
		})
	}
}

// checkQueryContext asserts the cancellation contract of one query
// surface: a pre-canceled ctx is refused by every entry point, and a
// live one answers bit-identically to the non-ctx calls.
func checkQueryContext(t *testing.T, ix querySurface, ds *Dataset) {
	t.Helper()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()
	q := ds.Vector(7)
	queries := []Vec{ds.Vector(1), ds.Vector(2), q}

	// Pre-canceled: every entry point refuses immediately.
	if _, err := ix.QueryContext(canceled, q, QueryOptions{}); true {
		requireCanceled(t, err)
	}
	if _, err := ix.TopKContext(canceled, q, 5); true {
		requireCanceled(t, err)
	}
	if _, err := ix.QueryBatchContext(canceled, queries, QueryOptions{}); true {
		requireCanceled(t, err)
	}

	// Live context: bit-identical to the non-ctx calls.
	want, err := ix.Query(q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.QueryContext(live, q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatchList(t, got, want)
	wantK, err := ix.TopK(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	gotK, err := ix.TopKContext(live, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatchList(t, gotK, wantK)
	wantB, err := ix.QueryBatch(queries, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := ix.QueryBatchContext(live, queries, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(wantB) != len(gotB) {
		t.Fatalf("batch sizes differ: %d vs %d", len(gotB), len(wantB))
	}
	for i := range wantB {
		requireSameMatchList(t, gotB[i], wantB[i])
	}
}

func requireSameMatchList(t *testing.T, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestRuntimeKnobNormalization pins the unified EngineConfig rule —
// zero selects the adaptive default, negative clamps to 1 — for fresh
// engines and for SetRuntime on a (shared-engine) index, which must
// normalize exactly the same way.
func TestRuntimeKnobNormalization(t *testing.T) {
	cfg := EngineConfig{Parallelism: -3, BatchSize: -7}.withDefaults()
	if cfg.Parallelism != 1 {
		t.Errorf("negative Parallelism normalized to %d, want 1", cfg.Parallelism)
	}
	if cfg.BatchSize != 1 {
		t.Errorf("negative BatchSize normalized to %d, want 1", cfg.BatchSize)
	}
	cfg = EngineConfig{}.withDefaults()
	if cfg.Parallelism != runtime.NumCPU() {
		t.Errorf("zero Parallelism normalized to %d, want NumCPU %d", cfg.Parallelism, runtime.NumCPU())
	}
	if cfg.BatchSize != 1024 {
		t.Errorf("zero BatchSize normalized to %d, want 1024", cfg.BatchSize)
	}

	eng := cancelTestEngine(t, Cosine, 100, 2)
	ix, err := eng.BuildIndex(Options{Algorithm: LSH, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	ix.SetRuntime(-2, -9)
	if got := ix.engine().cfg; got.Parallelism != 1 || got.BatchSize != 1 {
		t.Errorf("SetRuntime(-2, -9) normalized to %+v, want Parallelism=1 BatchSize=1", got)
	}
	ix.SetRuntime(0, 0)
	if got := ix.engine().cfg; got.Parallelism != runtime.NumCPU() || got.BatchSize != 1024 {
		t.Errorf("SetRuntime(0, 0) normalized to %+v, want NumCPU/1024", got)
	}
	// The knobs must never change results: negative (clamped) versus
	// default settings answer identically.
	q := ix.Dataset().Vector(3)
	want, err := ix.Query(q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix.SetRuntime(-5, -5)
	got, err := ix.Query(q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatchList(t, got, want)
}
