package bayeslsh

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"bayeslsh/internal/core"
	"bayeslsh/internal/live"
	"bayeslsh/internal/lshindex"
	"bayeslsh/internal/minhash"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/planner"
	"bayeslsh/internal/rng"
	"bayeslsh/internal/shard"
	"bayeslsh/internal/sighash"
	"bayeslsh/internal/stats"
	"bayeslsh/internal/vector"
)

// EngineConfig controls the hashing substrate shared by an Engine's
// searches. The zero value selects the paper's settings.
type EngineConfig struct {
	// Seed makes all randomized components deterministic.
	Seed uint64
	// SignatureBits is the length of cosine bit signatures
	// (default 2048, the paper's LSH Approx setting).
	SignatureBits int
	// MinHashes is the length of Jaccard minhash signatures
	// (default 512; the paper's LSH Approx uses the first 360).
	MinHashes int
	// ExactProjections disables the paper's 2-byte quantized storage
	// of Gaussian projections (§4.3) in favour of float64 storage.
	ExactProjections bool
	// Parallelism is the worker count of the sharded search pipeline:
	// signature hashing, candidate generation (LSH banding and the
	// AllPairs probe phase) and verification are divided over this
	// many goroutines. Both runtime knobs follow one normalization
	// rule — zero selects the adaptive default, negative clamps to the
	// minimum: 0 selects runtime.NumCPU(), negative (like 1) forces
	// the fully sequential pipeline. For a fixed Seed the result set
	// is identical at every setting.
	Parallelism int
	// BatchSize is the number of candidate pairs per unit of work fed
	// to verification workers through the pipeline's channel stage,
	// under the same rule as Parallelism: 0 selects the default 1024,
	// negative clamps to single-pair batches. Smaller batches balance
	// load better; larger batches amortize scheduling overhead over
	// more pairs. It batches the pipelines whose candidates are
	// materialized — the AllPairs pipelines and Jaccard BayesLSH(-Lite)
	// over full minhashes, whose prior is fitted from the whole
	// candidate set. The other banded-LSH pipelines verify each batch
	// of candidate rows inside the row phase that enumerates it, in
	// row batches sized by the corpus and Parallelism, so BatchSize
	// does not affect them.
	BatchSize int
}

// withDefaults normalizes the runtime knobs under one rule (zero =
// adaptive default, negative = clamp to the minimum of 1) and fills
// the hashing defaults. Engine construction and Index.SetRuntime both
// go through it, so a loaded snapshot normalizes exactly like a fresh
// engine.
func (c EngineConfig) withDefaults() EngineConfig {
	if c.SignatureBits == 0 {
		c.SignatureBits = 2048
	}
	if c.MinHashes == 0 {
		c.MinHashes = 512
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.NumCPU()
	}
	if c.Parallelism < 1 {
		c.Parallelism = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1024
	}
	if c.BatchSize < 1 {
		c.BatchSize = 1
	}
	return c
}

// Engine runs search pipelines over one dataset and one measure,
// computing and caching hash signatures on first use.
//
// An engine keeps what its searches would otherwise rebuild: the hash
// signatures, each filled only as deep as some search read it (8
// bytes per 64 cosine bits, 4 per minhash, per vector), and the band
// tables of banded LSH. Band j's table depends only on the signatures
// and j, never on the threshold, so for each (BandK, MultiProbe) the
// engine keeps the widest banding a search has built and serves every
// narrower request from its first bands. That is at most one banding
// per key, of at most SignatureBits/BandK bands (MinHashes/BandK
// under Jaccard), about 12 bytes per vector per band — 2.7 MB for 56
// bands over 4,000 vectors — held until the engine is freed.
type Engine struct {
	ds      *Dataset
	work    *vector.Collection // measure-appropriate view of the data
	measure Measure
	cfg     EngineConfig

	bitFam   *sighash.BlockFamily
	bitStore *sighash.Store
	minStore *minhash.Store
	pln      *planner.Planner
	// bands is shared by the engine's shallow copies, which band the
	// same signatures.
	bands *bandCache
}

// bandKey identifies the bandings that share band tables: the same
// band width and the same probing. Jaccard banding never probes.
type bandKey struct {
	k          int
	multiProbe bool
}

// bandCache keeps the widest banding built per bandKey. The lock
// guards only the map: bandings are built outside it, so concurrent
// searches may build the same one, and the wider result is kept.
type bandCache struct {
	mu   sync.Mutex
	kept map[bandKey]*lshindex.Banding
}

// get returns the kept banding's first l bands, or nil when the kept
// banding for key is narrower than l or there is none.
func (c *bandCache) get(key bandKey, l int) *lshindex.Banding {
	c.mu.Lock()
	b := c.kept[key]
	c.mu.Unlock()
	if b == nil || b.Tables() < l {
		return nil
	}
	return b.Prefix(l)
}

// put keeps b for key unless the kept banding is at least as wide.
func (c *bandCache) put(key bandKey, b *lshindex.Banding) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur := c.kept[key]; cur == nil || cur.Tables() < b.Tables() {
		c.kept[key] = b
	}
}

// ErrEmptyDataset reports an engine or index built over a nil or
// zero-length dataset — there is nothing to search, so construction
// fails rather than every later call.
var ErrEmptyDataset = errors.New("bayeslsh: empty dataset")

// NewEngine creates an engine for the dataset under the measure. For
// Cosine the dataset should already be normalized (Dataset.Normalize);
// for Jaccard and BinaryCosine weights are ignored or binarized
// internally. A nil or empty dataset returns ErrEmptyDataset.
func NewEngine(ds *Dataset, m Measure, cfg EngineConfig) (*Engine, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, ErrEmptyDataset
	}
	e := &Engine{ds: ds, measure: m, cfg: cfg.withDefaults(), bands: &bandCache{kept: map[bandKey]*lshindex.Banding{}}}
	switch m {
	case Cosine:
		e.work = ds.c
	case Jaccard, BinaryCosine:
		e.work = ds.c.Binarize().Normalize()
	default:
		return nil, fmt.Errorf("bayeslsh: unknown measure %v", m)
	}
	return e, nil
}

// Measure returns the engine's similarity measure.
func (e *Engine) Measure() Measure { return e.measure }

// workers returns the effective worker count of the sharded pipeline
// (1 means fully sequential).
func (e *Engine) workers() int { return e.cfg.Parallelism }

// bitFamily returns the engine's seeded hyperplane family, constructing
// it on first use. Factored out of bitSigStore so the disk-open path
// (which wires a fixed store over mapped signatures) derives its family
// from exactly the same parameters as a heap build — the construction
// the determinism contract hangs off.
func (e *Engine) bitFamily() *sighash.BlockFamily {
	if e.bitFam == nil {
		var opts []sighash.Option
		if e.cfg.ExactProjections {
			opts = append(opts, sighash.Exact())
		}
		e.bitFam = sighash.NewBlockFamily(e.work.Dim, e.cfg.SignatureBits, 128, rng.Derive(e.cfg.Seed, 1), opts...)
	}
	return e.bitFam
}

// keepBitFamily makes e hash with prev's hyperplane family — and so
// with every projection row prev's lifetime already materialized —
// when e would construct an identical one: a family is a pure function
// of (dim, SignatureBits, Seed, ExactProjections). Must run before e's
// first bitFamily call.
func (e *Engine) keepBitFamily(prev *Engine) {
	if prev.bitFam != nil && prev.work.Dim == e.work.Dim &&
		prev.cfg.SignatureBits == e.cfg.SignatureBits &&
		prev.cfg.Seed == e.cfg.Seed &&
		prev.cfg.ExactProjections == e.cfg.ExactProjections {
		e.bitFam = prev.bitFam
	}
}

// minFamily constructs the engine's seeded minwise family; see
// bitFamily for why it is factored out.
func (e *Engine) minFamily() *minhash.Family {
	return minhash.NewFamily(e.cfg.MinHashes, rng.Derive(e.cfg.Seed, 2))
}

// bitSigStore lazily constructs the cosine bit-signature store. The
// store extends each vector's signature only as deep as verification
// demands — the paper's "each point is only hashed as many times
// as is necessary".
func (e *Engine) bitSigStore() *sighash.Store {
	if e.bitStore == nil {
		e.bitStore = sighash.NewStore(e.work, e.bitFamily())
	}
	return e.bitStore
}

// minSigStore lazily constructs the minhash signature store.
func (e *Engine) minSigStore() *minhash.Store {
	if e.minStore == nil {
		e.minStore = minhash.NewStore(e.work, e.minFamily(), 32)
	}
	return e.minStore
}

// hashElapsed sums the hashing time accumulated by the stores so far.
func (e *Engine) hashElapsed() time.Duration {
	var d time.Duration
	if e.bitStore != nil {
		d += e.bitStore.Elapsed()
	}
	if e.minStore != nil {
		d += e.minStore.Elapsed()
	}
	return d
}

// exactSim returns the exact similarity of a pair under the engine's
// measure, evaluated on the original dataset.
func (e *Engine) exactSim(a, b int32) float64 {
	return toExactMeasure(e.measure).Sim(e.ds.c.Vecs[a], e.ds.c.Vecs[b])
}

// collisionProb returns the per-hash collision probability of a pair
// at exactly the threshold similarity.
func (e *Engine) collisionProb(t float64) float64 {
	switch e.measure {
	case Jaccard:
		return t
	default:
		return sighash.CosineToR(t)
	}
}

// lshShape computes the banding shape for the options' threshold — l
// tables of BandK hashes each, following l = ⌈log ε / log(1−p^k)⌉
// (its multi-probe variant when enabled), clamped to the signature
// budget — and the per-pair miss probability at the threshold that
// those l tables give: at most FalseNegativeRate unless the budget
// cut l.
func (e *Engine) lshShape(o Options) (bandK, l int, miss float64) {
	p := e.collisionProb(o.Threshold)
	if e.measure == Jaccard {
		l = min(lshindex.NumTables(p, o.BandK, o.FalseNegativeRate), e.minSigStore().MaxHashes()/o.BandK)
		return o.BandK, l, lshindex.MissRate(p, o.BandK, l)
	}
	budget := e.bitSigStore().MaxBits() / o.BandK
	if o.MultiProbe {
		l = min(lshindex.NumTablesMultiProbe(p, o.BandK, o.FalseNegativeRate), budget)
		return o.BandK, l, lshindex.MissRateMultiProbe(p, o.BandK, l)
	}
	l = min(lshindex.NumTables(p, o.BandK, o.FalseNegativeRate), budget)
	return o.BandK, l, lshindex.MissRate(p, o.BandK, l)
}

// lshPlan computes the banding shape (lshShape) and fills every corpus
// signature deep enough to band it, with cancellation polled between
// vectors (hashing dominates a cold engine's cost, so a canceled
// search must be able to escape it). Batch candidate generation and
// index building share this one plan, so a query-serving index probes
// exactly the tables the batch scan would have enumerated.
func (e *Engine) lshPlan(ctx context.Context, o Options) (bandK, l int, err error) {
	k, l, _ := e.lshShape(o)
	if e.measure == Jaccard {
		err = e.minSigStore().EnsureAllCtx(ctx, k*l, e.workers())
	} else {
		err = e.bitSigStore().EnsureAllCtx(ctx, k*l, e.workers())
	}
	if err != nil {
		return 0, 0, err
	}
	return k, l, nil
}

// lshBanding runs banded LSH's band phase at the options' threshold,
// with the table count from lshPlan, or serves it from the engine's
// kept banding (see Engine) when that is wide enough; then only the
// signature fill check runs. With keep, a banding built here is kept
// if it is the widest for its key. Cancellation is polled throughout:
// between per-vector signature fills inside lshPlan, then between
// bands; a canceled band phase keeps nothing.
func (e *Engine) lshBanding(ctx context.Context, o Options, keep bool) (*lshindex.Banding, error) {
	k, l, err := e.lshPlan(ctx, o)
	if err != nil {
		return nil, err
	}
	key := bandKey{k: k, multiProbe: o.MultiProbe && e.measure != Jaccard}
	if b := e.bands.get(key, l); b != nil {
		return b, nil
	}
	var b *lshindex.Banding
	if e.measure == Jaccard {
		b, err = lshindex.BandMinhashCtx(ctx, e.minSigStore().Sigs(), k, l, e.workers())
	} else {
		b, err = lshindex.BandBitsCtx(ctx, e.bitSigStore().Sigs(), k, l, key.multiProbe, e.workers())
	}
	if err != nil {
		return nil, err
	}
	if keep {
		e.bands.put(key, b)
	}
	return b, nil
}

// lshCandidates materializes the banded-LSH candidates at the options'
// threshold, empty vectors dropped (nonEmpty), in canonical (A, B)
// order: the band phase (keeping its banding with keep), then a row
// phase that collects the pairs. Cancellation is also polled within
// the row enumeration.
func (e *Engine) lshCandidates(ctx context.Context, o Options, keep bool) ([]pair.Pair, error) {
	b, err := e.lshBanding(ctx, o, keep)
	if err != nil {
		return nil, err
	}
	keepRows := e.nonEmpty()
	var sink shard.Slots[pair.Pair]
	err = lshindex.StreamRows(ctx, b, e.workers(), func(rows pair.Rows, _ *shard.Stopper) []pair.Pair {
		return pair.AppendRows(nil, keepRows(rows))
	}, sink.Put)
	if err != nil {
		return nil, err
	}
	return sink.Flat(), nil
}

// nonEmpty returns the filter that drops, from candidate rows, every
// pair touching a vector with no features. Such a vector's exact
// similarity to anything is 0, but its signature is a constant — every
// hyperplane bit set, every minhash Empty — so two of them collide on
// every hash and an estimating pipeline would report them as a
// similarity-1 pair. The query path drops them the same way (cut.mask).
// Corpora without empty vectors pay one scan of the vector headers and
// get their rows back untouched; otherwise partners are filtered in
// place and rows left with none are skipped.
func (e *Engine) nonEmpty() func(pair.Rows) pair.Rows {
	vecs := e.work.Vecs
	if !slices.ContainsFunc(vecs, func(v vector.Vector) bool { return v.Len() == 0 }) {
		return func(rows pair.Rows) pair.Rows { return rows }
	}
	return func(rows pair.Rows) pair.Rows {
		return func(yield func(int32, []int32) bool) {
			for a, bs := range rows {
				if vecs[a].Len() == 0 {
					continue
				}
				kept := bs[:0]
				for _, b := range bs {
					if vecs[b].Len() > 0 {
						kept = append(kept, b)
					}
				}
				if len(kept) > 0 && !yield(a, kept) {
					return
				}
			}
		}
	}
}

// workInput returns the collection in the representation AllPairs and
// PPJoin expect for the engine's measure: the raw dataset for Cosine
// (already normalized by the caller) and the raw dataset for binary
// measures (they binarize internally).
func (e *Engine) workInput() *vector.Collection {
	return e.ds.c
}

// needsPrior reports whether o's verifier under measure m prunes with
// a Jaccard Beta prior fitted from the candidate set (§4.1): BayesLSH
// under Jaccard over full minhashes. Such a pipeline must materialize
// its candidates before verifying any.
func needsPrior(m Measure, o Options) bool {
	return m == Jaccard && !o.OneBitMinhash && o.Algorithm.UsesBayes()
}

// fitPrior learns the Jaccard Beta prior from the candidate stream,
// exactly as §4.1 prescribes. Configurations whose verifier takes no
// prior (cosine measures, 1-bit minhash) get the uniform placeholder.
func (e *Engine) fitPrior(o Options, cands []pair.Pair) stats.Beta {
	if !needsPrior(e.measure, o) {
		return stats.Beta{Alpha: 1, Beta: 1}
	}
	return core.FitJaccardPrior(e.work, cands, o.PriorSample, rng.Derive(e.cfg.Seed, 3))
}

// verifyDepth is the one depth rule of verification: the number of
// hashes o's verification reads under the engine's measure, clamped to
// the signature budget — minhashes under Jaccard, hyperplane bits
// otherwise. The Bayes verifiers read up to MaxHashes (rounded down to
// whole rounds by their constructors), the §3 estimator of LSHApprox
// exactly ApproxHashes, and the exact pipelines none. A v3 snapshot
// persists at least this depth, and opening one checks it does.
func (e *Engine) verifyDepth(o Options) int {
	var n int
	switch {
	case o.Algorithm.UsesBayes():
		n = o.MaxHashes
	case o.Algorithm == LSHApprox:
		n = o.ApproxHashes
	default:
		return 0
	}
	if e.measure == Jaccard {
		return min(n, e.minSigStore().MaxHashes())
	}
	return min(n, e.bitSigStore().MaxBits())
}

// bayesVerifierWithPrior constructs the verifier over the engine's
// corpus for an already-determined prior — the path shared by fresh
// builds (which fit the prior from candidates), snapshot loads (which
// restore the fitted prior verbatim, so a loaded index prunes with the
// exact table the saved one did), live prior refits and the batch
// join. Verification skips Ensure for rounds no deeper than the
// store's watermark: the depth banding (lshPlan) or a snapshot filled
// every signature to.
func (e *Engine) bayesVerifierWithPrior(ctx context.Context, o Options, prior stats.Beta) (core.QueryVerifier, error) {
	params := core.Params{
		Threshold: o.Threshold,
		Epsilon:   o.Epsilon,
		Delta:     o.Delta,
		Gamma:     o.Gamma,
		K:         o.K,
		MaxHashes: e.verifyDepth(o),
	}
	var sigs live.View
	switch {
	case e.measure != Jaccard:
		st := e.bitSigStore()
		params.Ensure, params.Watermark, sigs.Bits = st.Ensure, st.Watermark(), st.Sigs()
	case o.OneBitMinhash:
		// 1-bit signatures are packed eagerly from the minhash store
		// (they are 32× smaller, so the packing is cheap).
		st := e.minSigStore()
		if err := st.EnsureAllCtx(ctx, params.MaxHashes, e.workers()); err != nil {
			return nil, err
		}
		sigs.One = minhash.PackOneBitAll(st.Sigs())
		params.Watermark = params.MaxHashes
	default:
		st := e.minSigStore()
		params.Ensure, params.Watermark, sigs.Min = st.Ensure, st.Watermark(), st.Sigs()
	}
	return newVerifier(e.measure, o.OneBitMinhash, sigs, prior, params)
}

// newVerifier constructs the Bayes verifier for params over one
// signature set — a corpus's stores or a live delta's rows: under
// Jaccard the 1-bit packed minhashes sigs.One (oneBit) or the full
// minhashes sigs.Min pruned under prior, under the cosine measures the
// hyperplane bits sigs.Bits. Every row holds at least
// params.MaxHashes hashes, or params.Ensure fills it that deep.
func newVerifier(m Measure, oneBit bool, sigs live.View, prior stats.Beta, params core.Params) (core.QueryVerifier, error) {
	switch {
	case m != Jaccard:
		return core.NewCosine(sigs.Bits, params.MaxHashes, params)
	case oneBit:
		return core.NewOneBitJaccard(sigs.One, params.MaxHashes, params)
	default:
		return core.NewJaccard(sigs.Min, prior, params)
	}
}
