package bayeslsh

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"time"

	"bayeslsh/internal/allpairs"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/shard"
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

// withDefaults checks the threshold and fills o's zero fields: the
// paper's settings, with the hash counts of the signature kind k.
func (o Options) withDefaults(k sigKind) (Options, error) {
	if o.Threshold <= 0 || o.Threshold > 1 {
		return o, fmt.Errorf("bayeslsh: threshold %v outside (0, 1]", o.Threshold)
	}
	d := k.defaults()
	o.Epsilon = cmp.Or(o.Epsilon, 0.03)
	o.Delta = cmp.Or(o.Delta, 0.05)
	o.Gamma = cmp.Or(o.Gamma, 0.03)
	o.K = cmp.Or(o.K, 32)
	o.LiteHashes = cmp.Or(o.LiteHashes, d.LiteHashes)
	o.MaxHashes = cmp.Or(o.MaxHashes, d.MaxHashes)
	o.PriorSample = cmp.Or(o.PriorSample, 1000)
	o.BandK = cmp.Or(o.BandK, d.BandK)
	o.FalseNegativeRate = cmp.Or(o.FalseNegativeRate, o.Epsilon)
	o.ApproxHashes = cmp.Or(o.ApproxHashes, d.ApproxHashes)
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
	o, err := opts.withDefaults(e.sigs)
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

// candidates materializes the candidates of o's generator — the
// AllPairs scan, sorted here, or banded LSH — in ascending (A, B)
// order, the canonical order that makes prior sampling, verification
// and output deterministic for a fixed Seed at any worker count.
// Shared by the materializing pipelines (streamTwoPhase), BuildIndex
// and the live prior refit, so the candidate stream cannot drift
// between them. keep is lshBanding's; index builds and refits pass
// false, since an index's engine lives as long as it serves.
func (e *Engine) candidates(ctx context.Context, o Options, keep bool) ([]pair.Pair, error) {
	if p, _ := o.Algorithm.pipeline(); p.gen == genAllPairs {
		cands, err := allpairs.CandidatesMeasureCtx(ctx, e.ds.c, toExactMeasure(e.measure), o.Threshold, e.workers())
		pair.SortPairs(cands)
		return cands, err
	}
	return e.lshCandidates(ctx, o, keep)
}

// dropSubThreshold removes the accepted hits whose exact similarity,
// as exact computes it, is below the threshold. The AllPairs candidate
// bound is evaluated in scan order by the batch join and from the
// query's side by a probe, so the two candidate sets can differ, but
// only on sub-threshold pairs. Exact-verifying the accepted hits (an
// output-sized cost) removes exactly those pairs from both paths, so
// AllPairsBayesLSH query results equal batch results. Survivors keep
// their estimated similarity. See docs/QUERYING.md.
func dropSubThreshold[H any](hits []H, t float64, exact func(H) float64) []H {
	kept := hits[:0]
	for _, h := range hits {
		if exact(h) >= t {
			kept = append(kept, h)
		}
	}
	return kept
}

// approxEstimator prepares the classical LSH estimation of §3: it
// fills every corpus signature to verifyDepth and returns the batch
// join's per-pair estimator plus that hash count.
func (e *Engine) approxEstimator(ctx context.Context, o Options) (func(a, b int32) float64, int, error) {
	n := e.verifyDepth(o)
	if err := e.sigs.sigStore().EnsureAllCtx(ctx, n, e.workers()); err != nil {
		return nil, 0, err
	}
	return e.sigs.approxPairs(n), n, nil
}

func fromResults(rs []pair.Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = Result{A: int(r.A), B: int(r.B), Sim: r.Sim}
	}
	return out
}
