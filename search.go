package bayeslsh

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bayeslsh/internal/allpairs"
	"bayeslsh/internal/minhash"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/shard"
	"bayeslsh/internal/sighash"
)

// Options configures one search. Zero-valued fields take the paper's
// defaults (§5.1): ε = γ = 0.03, δ = 0.05, k = 32 hashes per round,
// Lite budget h = 128 hashes for cosine and 64 for Jaccard, LSH false
// negative rate 0.03, LSH-Approx estimation over 2048 bits (cosine) or
// 360 hashes (Jaccard).
type Options struct {
	// Algorithm selects the pipeline.
	Algorithm Algorithm
	// AutoPipeline lets the engine pick Algorithm instead: the planner
	// (internal/planner, see docs/PLANNER.md) maps the corpus statistics
	// plus this request's measure and threshold to a concrete pipeline,
	// then the search runs exactly as if that pipeline had been set
	// explicitly — results are bit-identical to the explicit
	// configuration. When set, Algorithm is ignored. Output.Algorithm,
	// Index.Plan and LiveIndex.Plan report what was chosen.
	AutoPipeline bool
	// Threshold is the similarity threshold t (required, in (0, 1]).
	Threshold float64

	// Epsilon is BayesLSH's recall parameter ε; it also sets the LSH
	// candidate generation false negative rate when
	// FalseNegativeRate is unset.
	Epsilon float64
	// Delta, Gamma are BayesLSH's accuracy parameters.
	Delta, Gamma float64
	// K is the number of hashes BayesLSH compares per round.
	K int
	// LiteHashes is BayesLSH-Lite's hash budget h.
	LiteHashes int
	// MaxHashes caps the hashes BayesLSH examines per pair.
	MaxHashes int
	// PriorSample is the number of candidate pairs sampled to fit the
	// Jaccard Beta prior (default 1000).
	PriorSample int

	// OneBitMinhash switches Jaccard BayesLSH verification to 1-bit
	// minwise signatures (b-bit minhash, b = 1) — 32× smaller
	// signatures compared by XOR+popcount, at the cost of roughly
	// twice the hash comparisons for the same accuracy. An
	// implementation of the paper's §6 extension direction.
	OneBitMinhash bool

	// BandK is the number of hashes per LSH signature (band) for
	// candidate generation (default 8 bits for cosine measures, 3
	// minhashes for Jaccard).
	BandK int
	// MultiProbe enables 1-step multi-probe LSH candidate generation
	// (Lv et al., VLDB'07 — the paper's reference [17]) for the
	// cosine measures: each signature also probes the buckets whose
	// band key differs in one bit, so far fewer hash tables reach the
	// same false negative rate. Ignored for Jaccard.
	MultiProbe bool
	// FalseNegativeRate is the LSH candidate generation ε.
	FalseNegativeRate float64
	// ApproxHashes is the fixed hash count of LSH-Approx estimation.
	ApproxHashes int
}

func (o Options) withDefaults(m Measure) (Options, error) {
	if o.Threshold <= 0 || o.Threshold > 1 {
		return o, fmt.Errorf("bayeslsh: threshold %v outside (0, 1]", o.Threshold)
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.03
	}
	if o.Delta == 0 {
		o.Delta = 0.05
	}
	if o.Gamma == 0 {
		o.Gamma = 0.03
	}
	if o.K == 0 {
		o.K = 32
	}
	if o.LiteHashes == 0 {
		if m == Jaccard {
			o.LiteHashes = 64
		} else {
			o.LiteHashes = 128
		}
	}
	if o.MaxHashes == 0 {
		if m == Jaccard {
			o.MaxHashes = 512
		} else {
			o.MaxHashes = 2048
		}
	}
	if o.PriorSample == 0 {
		o.PriorSample = 1000
	}
	if o.BandK == 0 {
		if m == Jaccard {
			o.BandK = 3
		} else {
			o.BandK = 8
		}
	}
	if o.FalseNegativeRate == 0 {
		o.FalseNegativeRate = o.Epsilon
	}
	if o.ApproxHashes == 0 {
		if m == Jaccard {
			o.ApproxHashes = 360
		} else {
			o.ApproxHashes = 2048
		}
	}
	return o, nil
}

// Output reports the results and cost profile of one search.
type Output struct {
	// Algorithm and Threshold echo the request.
	Algorithm Algorithm
	Threshold float64
	// Results are the pairs found, with exact or estimated
	// similarities depending on the pipeline.
	Results []Result

	// Candidates is the number of candidate pairs generated; Pruned is
	// the number eliminated by BayesLSH pruning (0 for non-Bayes
	// pipelines); ExactVerified counts exact similarity computations
	// in the verification stage.
	Candidates    int
	Pruned        int
	ExactVerified int
	// HashesCompared is the number of hash comparisons spent in
	// verification.
	HashesCompared int64
	// SurvivorsByRound[i] is the number of candidates still alive
	// after (i+1)*K hashes (Bayes pipelines only) — Figure 4's series.
	SurvivorsByRound []int
	// FalseNegativeBound is the probability that banded LSH candidate
	// generation misses a pair whose similarity is exactly the
	// threshold, given the tables it banded: (1 − p^k)^l, or its
	// multi-probe form, for per-hash collision probability p at the
	// threshold — the rate that sizing l inverts. It is at most
	// FalseNegativeRate unless the signature budget capped l (low
	// thresholds; see docs/TUNING.md), and 0 for the pipelines that do
	// not band.
	FalseNegativeBound float64

	// CandGenTime and VerifyTime are the wall-clock costs of the two
	// phases; Total is their sum (the paper's "full execution time").
	// Where verification runs inside the banded-LSH row phase (every
	// LSH pipeline but Jaccard BayesLSH over full minhashes, which
	// materializes its candidates to fit a prior), CandGenTime covers
	// the banding runs — hashing to the band depth and bucketing every
	// band, or, when the engine kept a wide enough banding from an
	// earlier search, only the check that every signature is filled to
	// the band depth — and VerifyTime the verifier's construction plus
	// the fused row phase, which enumerates and verifies each row
	// together.
	// HashTime is the portion of those phases spent computing hash
	// signatures (lazy signature blocks are materialized inside the
	// phase that first needs them, so HashTime is part of Total, not
	// an addition to it). With EngineConfig.Parallelism > 1, HashTime
	// sums per-worker hashing time and can therefore exceed the
	// enclosing phase's wall clock.
	CandGenTime time.Duration
	VerifyTime  time.Duration
	HashTime    time.Duration
	Total       time.Duration
}

// Search runs one pipeline. Engines cache hash signatures and band
// tables (see Engine), so repeated searches (e.g. threshold sweeps)
// only pay hashing once, and banding once per widest table count;
// HashTime reports the hashing cost incurred by this call. Search is
// SearchContext with context.Background() — it cannot be canceled.
func (e *Engine) Search(opts Options) (*Output, error) {
	return e.SearchContext(context.Background(), opts)
}

// SearchContext is Search with cooperative cancellation: every phase
// of every pipeline — candidate generation, BayesLSH rounds, exact
// verification — polls ctx and aborts promptly once it is done (see
// docs/CONTEXTS.md for the exact check granularity). A canceled
// search returns an error wrapping context.Canceled or
// context.DeadlineExceeded, with no partial Output and every pipeline
// goroutine drained. For a ctx that is never canceled the Output is
// bit-identical to Search's.
//
// SearchContext is Stream's pipeline collected: the same run, with
// every result batch stored under its slot and the batches
// concatenated in batch order, so Results come back in the pipeline's
// canonical order (candidate order for the two-phase pipelines, scan
// order for AllPairs, PPJoin and BruteForce) at every Parallelism and
// BatchSize.
func (e *Engine) SearchContext(ctx context.Context, opts Options) (*Output, error) {
	o, err := e.prepare(ctx, opts)
	if err != nil {
		return nil, err
	}
	out := &Output{Algorithm: o.Algorithm, Threshold: o.Threshold}
	hashBefore := e.hashElapsed()
	var sink shard.Slots[pair.Result]
	if err := e.stream(ctx, o, out, sink.Put); err != nil {
		return nil, ctxWrap(err)
	}
	out.Results = fromResults(sink.Flat())
	out.HashTime = e.hashElapsed() - hashBefore
	out.Total = out.CandGenTime + out.VerifyTime
	return out, nil
}

// prepare is the prologue shared by SearchContext and Stream: it
// validates the options and fills their defaults, refuses a done ctx
// before any work — in particular before AutoPipeline's first use
// collects corpus statistics — and resolves AutoPipeline to a concrete
// Algorithm.
func (e *Engine) prepare(ctx context.Context, opts Options) (Options, error) {
	o, err := opts.withDefaults(e.measure)
	if err != nil {
		return o, err
	}
	if err := ctx.Err(); err != nil {
		return o, ctxWrap(err)
	}
	if o.AutoPipeline {
		o, _ = e.resolveAuto(o, false)
	}
	return o, nil
}

// ctxWrap moves a cancellation error into the library's error space,
// preserving errors.Is(err, context.Canceled / DeadlineExceeded).
// Non-cancellation errors pass through untouched.
func ctxWrap(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("bayeslsh: search aborted: %w", err)
	}
	return err
}

// candidates runs the two-phase pipelines' candidate-generation phase
// for the options' algorithm — the AllPairs scan for the AP pipelines
// (its probe phase sharded over the engine's workers), banded LSH
// otherwise — and returns the candidates in ascending (A, B) order,
// the canonical order that makes everything downstream of generation
// (prior sampling, verification order, output order) deterministic
// for a fixed Seed at any worker count. Banded LSH emits that order
// directly; the AllPairs scan emits in its own scan order, which the
// AllPairs pipeline streams in, so its candidates are sorted here.
// Shared by the pipelines that materialize their candidates
// (Engine.streamTwoPhase), BuildIndex and the live prior refit so the
// candidate stream cannot drift between them; the fused banded-LSH
// pipelines enumerate the same rows through the same lshBanding and
// nonEmpty, without collecting them. With keep, a banding the LSH
// candidates are enumerated from stays on the engine for later
// searches (lshBanding). Index builds and the live prior refit pass
// false: an index holds its engine for as long as it serves, and a
// banding kept there would only hold memory.
func (e *Engine) candidates(ctx context.Context, o Options, keep bool) ([]pair.Pair, error) {
	switch o.Algorithm {
	case AllPairsBayesLSH, AllPairsBayesLSHLite:
		cands, err := allpairs.CandidatesMeasureCtx(ctx, e.workInput(), toExactMeasure(e.measure), o.Threshold, e.workers())
		pair.SortPairs(cands)
		return cands, err
	default:
		return e.lshCandidates(ctx, o, keep)
	}
}

// dropSubThreshold removes the accepted hits whose exact similarity,
// as exact computes it, is below the threshold. The AllPairs candidate
// stream is the one direction-dependent stage of the two-phase
// pipelines: the batch scan evaluates the cheap candidate bound in
// processing order, while a query probe evaluates it from the query's
// side, so the two candidate sets can differ — but only on
// sub-threshold pairs, because the bound is an upper bound on
// similarity. Exact-verifying the accepted hits (an output-sized cost,
// not a candidate-sized one; pruning still avoids exact similarities
// for the overwhelming majority of candidates) removes exactly those
// pairs from both paths, which is what makes AllPairsBayesLSH query
// results strictly equal to batch results. The batch rows and the
// query hits both pass through here. Survivors keep their estimated
// similarity — acceptance, not reporting, uses the exact value. See
// docs/QUERYING.md.
func dropSubThreshold[H any](hits []H, t float64, exact func(H) float64) []H {
	kept := hits[:0]
	for _, h := range hits {
		if exact(h) >= t {
			kept = append(kept, h)
		}
	}
	return kept
}

// approxEstimator prepares the classical LSH estimation of §3 over
// the corpus: it fills every signature to the verifyDepth hash count
// (cancelable between vectors) and returns the batch join's per-pair
// estimator plus that count. Each estimate depends only on the pair's
// two signatures, so the LSHApprox output is independent of
// scheduling.
func (e *Engine) approxEstimator(ctx context.Context, o Options) (func(a, b int32) float64, int, error) {
	n := e.verifyDepth(o)
	if e.measure == Jaccard {
		st := e.minSigStore()
		if err := st.EnsureAllCtx(ctx, n, e.workers()); err != nil {
			return nil, 0, err
		}
		sigs := st.Sigs()
		return func(a, b int32) float64 { return approxJaccard(sigs[a], sigs[b], n) }, n, nil
	}
	st := e.bitSigStore()
	if err := st.EnsureAllCtx(ctx, n, e.workers()); err != nil {
		return nil, 0, err
	}
	sigs := st.Sigs()
	return func(a, b int32) float64 { return approxCosine(sigs[a], sigs[b], n) }, n, nil
}

// approxJaccard is the §3 maximum-likelihood Jaccard estimate: the
// match rate of the first n minhashes of x and y. The batch LSHApprox
// pipeline and the index's query path both estimate through it, so
// the two cannot drift.
func approxJaccard(x, y []uint32, n int) float64 {
	return float64(minhash.Matches(x, y, 0, n)) / float64(n)
}

// approxCosine is the §3 estimate for the cosine measures: the match
// rate of the first n hyperplane bits of x and y, clamped to the
// collision-probability support [0.5, 1] and mapped back to cosine
// space. Shared like approxJaccard.
func approxCosine(x, y []uint64, n int) float64 {
	return sighash.RToCosine(clamp(float64(sighash.MatchCount(x, y, 0, n))/float64(n), 0.5, 1))
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func fromResults(rs []pair.Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = Result{A: int(r.A), B: int(r.B), Sim: r.Sim}
	}
	return out
}
