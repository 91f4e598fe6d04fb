package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"bayeslsh/internal/minhash"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/shard"
	"bayeslsh/internal/testutil"
	"bayeslsh/internal/vector"
)

// batchVerifier is a Verifier with its collecting forms, which every
// verifier in this package has.
type batchVerifier interface {
	Verifier
	VerifyParallelCtx(ctx context.Context, cands []pair.Pair, workers, batch int) ([]pair.Result, Stats, error)
	VerifyLiteParallelCtx(ctx context.Context, cands []pair.Pair, h int, sim ExactSimFunc, workers, batch int) ([]pair.Result, Stats, error)
}

// verifySeq is the oracle of the batch tests: Algorithm 1 on the
// calling goroutine, all candidates in one batch, not cancelable.
func verifySeq(t testing.TB, v Verifier, cands []pair.Pair) ([]pair.Result, Stats) {
	t.Helper()
	var sink shard.Slots[pair.Result]
	st, err := v.VerifyStream(context.Background(), cands, 1, len(cands), sink.Put)
	if err != nil {
		t.Fatal(err)
	}
	return sink.Flat(), st
}

// verifyLiteSeq is verifySeq for Algorithm 2.
func verifyLiteSeq(t testing.TB, v Verifier, cands []pair.Pair, h int, sim ExactSimFunc) ([]pair.Result, Stats) {
	t.Helper()
	var sink shard.Slots[pair.Result]
	st, err := v.VerifyLiteStream(context.Background(), cands, h, sim, 1, len(cands), sink.Put)
	if err != nil {
		t.Fatal(err)
	}
	return sink.Flat(), st
}

// requireSameVerification fails unless two (results, stats) outcomes
// agree exactly.
func requireSameVerification(t *testing.T, seqR, parR []pair.Result, seqS, parS Stats) {
	t.Helper()
	if len(seqR) != len(parR) {
		t.Fatalf("parallel accepted %d pairs, sequential %d", len(parR), len(seqR))
	}
	for i := range seqR {
		if seqR[i] != parR[i] {
			t.Fatalf("result %d: parallel %+v, sequential %+v", i, parR[i], seqR[i])
		}
	}
	if !reflect.DeepEqual(seqS, parS) {
		t.Fatalf("stats differ: parallel %+v, sequential %+v", parS, seqS)
	}
}

// batchDriver is one streaming entry point with its algorithm's
// arguments bound; collect is the same stream gathered through the
// slot sink.
type batchDriver struct {
	collect func(ctx context.Context, workers, batch int) ([]pair.Result, Stats, error)
	stream  func(ctx context.Context, workers, batch int, emit func(int, []pair.Result) error) (Stats, error)
}

func bayesDriver(v batchVerifier, cands []pair.Pair) batchDriver {
	return batchDriver{
		collect: func(ctx context.Context, workers, batch int) ([]pair.Result, Stats, error) {
			return v.VerifyParallelCtx(ctx, cands, workers, batch)
		},
		stream: func(ctx context.Context, workers, batch int, emit func(int, []pair.Result) error) (Stats, error) {
			return v.VerifyStream(ctx, cands, workers, batch, emit)
		},
	}
}

func liteDriver(v batchVerifier, cands []pair.Pair, h int, sim ExactSimFunc) batchDriver {
	return batchDriver{
		collect: func(ctx context.Context, workers, batch int) ([]pair.Result, Stats, error) {
			return v.VerifyLiteParallelCtx(ctx, cands, h, sim, workers, batch)
		},
		stream: func(ctx context.Context, workers, batch int, emit func(int, []pair.Result) error) (Stats, error) {
			return v.VerifyLiteStream(ctx, cands, h, sim, workers, batch, emit)
		},
	}
}

// requireDriverInvariant checks the determinism guarantee of the batch
// drivers: for every worker count, batch size and kind of
// never-canceled context the collected output equals the one-worker,
// one-batch oracle exactly, and the stream in arrival order equals it
// as a set, with the same Stats. The oracle runs twice, the first run
// building the accept table if the process has none for its key, so
// every compared run reads built tables.
func requireDriverInvariant(t *testing.T, d batchDriver, n int) {
	t.Helper()
	if _, _, err := d.collect(context.Background(), 1, n); err != nil {
		t.Fatal(err)
	}
	wantR, wantS, err := d.collect(context.Background(), 1, n)
	if err != nil {
		t.Fatal(err)
	}
	for name, ctx := range testutil.Contexts(t) {
		for _, workers := range []int{1, 2, 4, 7} {
			for _, batch := range []int{1, 64, n} {
				gotR, gotS, err := d.collect(ctx, workers, batch)
				if err != nil {
					t.Fatalf("%s workers=%d batch=%d: %v", name, workers, batch, err)
				}
				requireSameVerification(t, wantR, gotR, wantS, gotS)

				var streamed []pair.Result
				streamS, err := d.stream(ctx, workers, batch, func(_ int, rs []pair.Result) error {
					streamed = append(streamed, rs...)
					return nil
				})
				if err != nil {
					t.Fatalf("%s workers=%d batch=%d: stream: %v", name, workers, batch, err)
				}
				pair.SortResults(streamed)
				sorted := append([]pair.Result(nil), wantR...)
				pair.SortResults(sorted)
				requireSameVerification(t, sorted, streamed, wantS, streamS)
			}
		}
	}
}

func jaccardSim(c *vector.Collection) ExactSimFunc {
	return func(a, b int32) float64 { return vector.Jaccard(c.Vecs[a], c.Vecs[b]) }
}

func TestJaccardVerifyParallelMatchesSequential(t *testing.T) {
	c, cands, v := jaccardSetup(t, 400, 31, 0.5)
	requireDriverInvariant(t, bayesDriver(v, cands), len(cands))
	requireDriverInvariant(t, liteDriver(v, cands, 64, jaccardSim(c)), len(cands))
}

func TestCosineVerifyParallelMatchesSequential(t *testing.T) {
	c, cands, v := cosineSetup(t, 400, 17, 0.7)
	sim := func(a, b int32) float64 { return vector.Cosine(c.Vecs[a], c.Vecs[b]) }
	requireDriverInvariant(t, bayesDriver(v, cands), len(cands))
	requireDriverInvariant(t, liteDriver(v, cands, 128, sim), len(cands))
}

// TestVerifierSharedAcrossGoroutines exercises one verifier (and its
// lazily built accept table) from many goroutines at once — the
// access pattern of the engine's worker pool — under the race
// detector.
func TestVerifierSharedAcrossGoroutines(t *testing.T) {
	_, cands, v := jaccardSetup(t, 300, 5, 0.5)
	want, _ := verifySeq(t, v, cands)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := v.VerifyParallelCtx(context.Background(), cands, 1, len(cands))
			if err != nil || len(got) != len(want) {
				t.Errorf("concurrent verification accepted %d pairs (err %v), want %d", len(got), err, len(want))
			}
		}()
	}
	wg.Wait()
}

// newLazyJaccard wires a verifier to a live lazily-filling minhash
// store via Params.Ensure — the configuration the engine uses, where
// verification workers trigger concurrent signature fills. ensured
// (optional) observes every Ensure call before it reaches the store.
func newLazyJaccard(t *testing.T, c *vector.Collection, cands []pair.Pair, th float64, ensured func()) *JaccardVerifier {
	t.Helper()
	store := minhash.NewStore(c, minhash.NewFamily(512, 1000), 32)
	prior := FitJaccardPrior(c, cands, 100, 2000)
	v, err := NewJaccard(store.Sigs(), prior, Params{
		Threshold: th, Epsilon: 0.03, Delta: 0.05, Gamma: 0.05,
		Ensure: func(id int32, n int) {
			if ensured != nil {
				ensured()
			}
			store.Ensure(id, n)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestVerifyParallelWithEnsure runs the sharded path against a live
// lazily-filling signature store, the configuration the engine uses.
func TestVerifyParallelWithEnsure(t *testing.T) {
	c, cands, _ := jaccardSetup(t, 300, 11, 0.5)
	seq := newLazyJaccard(t, c, cands, 0.5, nil)
	par := newLazyJaccard(t, c, cands, 0.5, nil)
	seq.acceptTable(&Stats{}) // the twins share it; neither run is charged
	seqR, seqS := verifySeq(t, seq, cands)
	parR, parS, err := par.VerifyParallelCtx(context.Background(), cands, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	requireSameVerification(t, seqR, parR, seqS, parS)
}

// TestVerifyPreCanceled: a dead context is refused before any hash is
// read, by the collecting and the streaming drivers of both algorithms.
func TestVerifyPreCanceled(t *testing.T) {
	c, cands, _ := jaccardSetup(t, 300, 11, 0.5)
	var ensures atomic.Int64
	v := newLazyJaccard(t, c, cands, 0.5, func() { ensures.Add(1) })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	emit := func(int, []pair.Result) error {
		t.Error("emit ran under a dead context")
		return nil
	}
	for name, d := range map[string]batchDriver{
		"bayes": bayesDriver(v, cands),
		"lite":  liteDriver(v, cands, 64, jaccardSim(c)),
	} {
		out, st, err := d.collect(ctx, 4, 32)
		if !errors.Is(err, context.Canceled) || out != nil || st.Candidates != 0 {
			t.Errorf("%s: collect under a dead context = (%d results, %+v, %v)", name, len(out), st, err)
		}
		if st, err := d.stream(ctx, 4, 32, emit); !errors.Is(err, context.Canceled) || st.Candidates != 0 {
			t.Errorf("%s: stream under a dead context = (%+v, %v)", name, st, err)
		}
	}
	if n := ensures.Load(); n != 0 {
		t.Errorf("%d signature reads under a dead context", n)
	}
}

// TestVerifyCancelMidRun cancels from inside the round loop (the
// Ensure hook, so the cut is deterministic) and requires ctx.Err(),
// no partial output, a run cut short and every worker drained.
func TestVerifyCancelMidRun(t *testing.T) {
	c, cands, _ := jaccardSetup(t, 300, 11, 0.5)
	for _, name := range []string{"bayes", "lite"} {
		driver := func(v batchVerifier) batchDriver {
			if name == "lite" {
				return liteDriver(v, cands, 64, jaccardSim(c))
			}
			return bayesDriver(v, cands)
		}
		var full atomic.Int64
		if _, _, err := driver(newLazyJaccard(t, c, cands, 0.5, func() { full.Add(1) })).collect(context.Background(), 4, 16); err != nil {
			t.Fatal(err)
		}

		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var ensures atomic.Int64
		v := newLazyJaccard(t, c, cands, 0.5, func() {
			if ensures.Add(1) >= full.Load()/4 {
				cancel()
				runtime.Gosched() // let the stopper's watcher run
			}
		})
		out, st, err := driver(v).collect(ctx, 4, 16)
		cancel()
		if !errors.Is(err, context.Canceled) || out != nil || st.Candidates != 0 {
			t.Errorf("%s: canceled collect = (%d results, %+v, %v)", name, len(out), st, err)
		}
		if n := ensures.Load(); n >= full.Load() {
			t.Errorf("%s: %d signature reads, a full run takes %d — cancellation did not cut the run short", name, n, full.Load())
		}
		testutil.RequireNoGoroutineLeak(t, base)
	}
}
