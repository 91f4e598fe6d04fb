package bayeslsh

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"bayeslsh/internal/allpairs"
	"bayeslsh/internal/core"
	"bayeslsh/internal/lshindex"
	"bayeslsh/internal/planner"
	"bayeslsh/internal/stats"
)

// Index is a query-serving similarity index: it builds signatures,
// LSH band tables and/or the AllPairs inverted index once from a
// Dataset, then answers any number of Query, TopK and QueryBatch
// calls without recomputing the join. Build one with NewIndex or
// Engine.BuildIndex.
//
// The Options passed at build time select the candidate source and
// verification exactly as they do for Engine.Search: LSH algorithms
// keep the banded hash tables resident, AllPairs algorithms keep the
// inverted index resident, and the Bayes variants share the batch
// pipeline's verifier (pruning and accept tables, Jaccard prior).
// PPJoin has no query-serving form and is rejected.
//
// An Index is immutable after construction and safe for concurrent
// use: signature stores fill lazily under their own synchronization,
// band tables and the inverted index are read-only, and every
// per-candidate verification decision is a pure function of the
// query's and candidate's hash signatures. For a fixed
// EngineConfig.Seed, query results are bit-for-bit identical at any
// Parallelism and BatchSize — and consistent with Engine.Search: a
// query equal to dataset vector i returns, apart from the self-match,
// exactly the pairs involving i that the batch search finds at the
// same threshold, for every pipeline (see docs/QUERYING.md).
//
// Queries run one loop shared with LiveIndex (query.go): an Index is
// the one-segment cut of it, with identity ids and nothing masked.
type Index struct {
	// eng is the engine view serving this index's queries. It is an
	// atomic pointer so SetRuntime can swap in a detached view (with
	// different runtime knobs) while queries are in flight: a query
	// loads the pointer once per engine access and every view shares
	// the same dataset and signature stores, so any interleaving is
	// valid.
	eng  atomic.Pointer[Engine]
	opts Options // resolved search options the index was built with

	// The candidate structures serve both residencies: built by
	// BuildIndex or decoded from a v1/v2 snapshot into the heap, or laid
	// over a mapped v3 snapshot by LoadFile. Band tables have one
	// form for both; the AllPairs source is interface-typed over the
	// heap index and the mapped view.
	bits *lshindex.BitsTables    // LSH tables, cosine measures
	mins *lshindex.MinhashTables // LSH tables, Jaccard
	ap   allpairs.Source         // AllPairs inverted index
	vq   core.QueryVerifier      // Bayes / Lite verification

	// disk is non-nil for an index served in place from a v3 snapshot
	// (LoadFile): it owns the mapping and the per-section
	// first-touch verification state. nil for heap-resident indexes.
	disk *diskState

	// prior is the fitted Jaccard Beta prior behind vq (the uniform
	// placeholder when the verifier takes none), kept so snapshots can
	// persist it and a loaded index can rebuild the identical verifier
	// without re-enumerating the candidate stream.
	prior stats.Beta

	// Query-signature depths, split by representation and use: every
	// query is hashed to the banding depth for the table probes, and
	// verification may deepen it up to the verification depth, only
	// as far as its candidates' rounds read (TopK never does). 0 means
	// unused.
	bandBits, verifyBits int  // packed-bit depths (cosine measures)
	bandMin, verifyMin   int  // minhash depths (Jaccard)
	packOneBit           bool // queries additionally pack minhashes to 1-bit
	approxN              int  // fixed hash count of the LSHApprox estimator

	stats IndexStats

	// cstats are the planner's corpus statistics, collected at build
	// time and persisted in snapshot meta; plan records the pipeline
	// decision (with fired rules when AutoPipeline chose it).
	cstats CorpusStats
	plan   Plan
}

// IndexStats reports what building the index cost and what it holds.
type IndexStats struct {
	// BuildTime is the wall-clock cost of NewIndex/BuildIndex,
	// including signature hashing and table construction.
	BuildTime time.Duration
	// Tables and BandK describe the LSH banding plan (0 for AllPairs
	// and BruteForce sources).
	Tables, BandK int
	// PriorCandidates is the number of candidate pairs enumerated at
	// build time to fit the Jaccard Beta prior — the one build step
	// that scans the corpus like a batch search does, paid once so
	// that every query prunes with exactly the batch prior (0 when no
	// prior is needed).
	PriorCandidates int
}

// NewIndex builds a query-serving index over the dataset: a
// convenience for NewEngine followed by BuildIndex. See NewEngine for
// the dataset contract per measure.
func NewIndex(ds *Dataset, m Measure, cfg EngineConfig, opts Options) (*Index, error) {
	eng, err := NewEngine(ds, m, cfg)
	if err != nil {
		return nil, err
	}
	return eng.BuildIndex(opts)
}

// BuildIndex builds a query-serving index from the engine's cached
// hashing substrate. The engine remains usable for batch searches;
// index queries and batch searches share signature stores, so hashing
// is paid once across both. Options are resolved with the same
// defaults as Search. BuildIndex is BuildIndexContext with
// context.Background() — it cannot be canceled.
func (e *Engine) BuildIndex(opts Options) (*Index, error) {
	return e.BuildIndexContext(context.Background(), opts)
}

// BuildIndexContext is BuildIndex with cooperative cancellation:
// signature fills, candidate enumeration (the prior-fitting step of
// the Jaccard Bayes pipelines) and verifier construction poll ctx, so
// a long build — for example a background LiveIndex merge — aborts
// between and inside those steps once ctx is done. The candidate
// structure itself (the banded hash tables, or the AllPairs inverted
// index) is not polled: it is linear in the corpus and runs to
// completion once started. A canceled build returns an error wrapping
// context.Canceled or context.DeadlineExceeded; for a ctx that is
// never canceled the index is bit-identical to BuildIndex's.
func (e *Engine) BuildIndexContext(ctx context.Context, opts Options) (*Index, error) {
	ix, err := e.buildIndexCtx(ctx, opts, nil)
	if err != nil {
		return nil, ctxWrap(err)
	}
	return ix, nil
}

// buildIndexCtx is the shared index-construction path: it builds the
// candidate structure and fits the prior, then wires the index like a
// load or an open does (Index.wire). When prior is non-nil it is used
// verbatim in place of fitting one from the candidate stream — the
// merge path of a LiveIndex, which already maintains the corpus prior
// and must not pay a second enumeration.
func (e *Engine) buildIndexCtx(ctx context.Context, opts Options, prior *stats.Beta) (*Index, error) {
	o, err := opts.withDefaults(e.measure)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	// Resolve AutoPipeline before anything is built, clearing the flag
	// so downstream rebuilds over these Options — a LiveIndex merge, a
	// snapshot load — reproduce the chosen pipeline instead of
	// re-planning over a drifted corpus.
	plan := Plan{Pipeline: planner.Pipeline(o.Algorithm)}
	if o.AutoPipeline {
		o, plan = e.resolveAuto(o, true)
	}
	// The prior defaults to the uniform placeholder so every index —
	// including the non-Bayes pipelines — snapshots a valid one.
	ix := &Index{opts: o, prior: stats.Beta{Alpha: 1, Beta: 1}}
	ix.plan = plan
	ix.cstats = e.corpusPlanner().Stats()
	ix.eng.Store(e)

	// Candidate source.
	switch o.Algorithm {
	case BruteForce:
		// Exhaustive scan per query; nothing to build.
	case AllPairs, AllPairsBayesLSH, AllPairsBayesLSHLite:
		ix.ap, err = allpairs.BuildIndexMeasure(e.workInput(), toExactMeasure(e.measure), o.Threshold)
		if err != nil {
			return nil, err
		}
	case LSH, LSHApprox, LSHBayesLSH, LSHBayesLSHLite:
		k, l, err := e.lshPlan(ctx, o)
		if err != nil {
			return nil, err
		}
		ix.stats.BandK, ix.stats.Tables = k, l
		if e.measure == Jaccard {
			ix.mins, err = lshindex.BuildMinhash(e.minSigStore().Sigs(), k, l, e.workers())
		} else {
			ix.bits, err = lshindex.BuildBits(e.bitSigStore().Sigs(), k, l, e.workers(), o.MultiProbe)
		}
		if err != nil {
			return nil, err
		}
	case PPJoin:
		return nil, fmt.Errorf("bayeslsh: PPJoin has no query-serving index (its prefix filter is join-order dependent); use an LSH or AllPairs algorithm")
	default:
		return nil, fmt.Errorf("bayeslsh: unknown algorithm %v", o.Algorithm)
	}

	// The prior, fitted where the verifier prunes with one: the Jaccard
	// verifier's pruning table depends on the Beta prior, which the batch
	// pipeline fits from its candidate stream. Reproduce that stream once
	// at build so every query shares the batch search's exact prior.
	switch {
	case prior != nil:
		ix.prior = *prior
	case needsPrior(e.measure, o):
		cands, err := e.candidates(ctx, o, false)
		if err != nil {
			return nil, err
		}
		ix.stats.PriorCandidates = len(cands)
		ix.prior = e.fitPrior(o, cands)
	}
	if err := ix.wire(ctx); err != nil {
		return nil, err
	}
	ix.stats.BuildTime = time.Since(start)
	return ix, nil
}

// engine returns the engine view currently serving the index (see the
// eng field and SetRuntime).
func (ix *Index) engine() *Engine { return ix.eng.Load() }

// Measure returns the index's similarity measure.
func (ix *Index) Measure() Measure { return ix.engine().measure }

// Threshold returns the similarity threshold the index was built at —
// the floor below which candidate generation gives no recall
// guarantee, and the default threshold of Query.
func (ix *Index) Threshold() float64 { return ix.opts.Threshold }

// Options returns the resolved search options the index was built
// with.
func (ix *Index) Options() Options { return ix.opts }

// Len returns the number of indexed corpus vectors.
func (ix *Index) Len() int { return ix.engine().ds.Len() }

// Dim returns the feature-space dimensionality the index was built
// over — the exclusive upper bound on query and ingest feature
// indices.
func (ix *Index) Dim() int { return ix.engine().ds.Dim() }

// Dataset returns the indexed corpus. An index loaded from a snapshot
// carries its corpus with it, so serving processes can, for example,
// query the index with stored vectors (Dataset.Vector) without
// shipping the dataset separately.
func (ix *Index) Dataset() *Dataset { return ix.engine().ds }

// Stats returns build cost and shape statistics.
func (ix *Index) Stats() IndexStats { return ix.stats }

// CorpusStats returns the planner's corpus statistics collected when
// the index was built. They are persisted in snapshots; indexes loaded
// from snapshots written before the planner existed recompute them on
// load (heap residencies) or report the zero value (disk residencies,
// which never scan the mapped corpus eagerly).
func (ix *Index) CorpusStats() CorpusStats { return ix.cstats }

// Plan returns the index's pipeline decision: the pipeline it runs
// (always) and the greedy rules that selected it (only when
// Options.AutoPipeline made the choice; empty Rules means the caller
// configured the pipeline explicitly, or the index was loaded from a
// snapshot, which persists the chosen pipeline but not the rules).
func (ix *Index) Plan() Plan { return ix.plan }
