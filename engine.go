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
	"bayeslsh/internal/lshindex"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/planner"
	"bayeslsh/internal/rng"
	"bayeslsh/internal/shard"
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
	// NewEngine refuses either budget outside [1, 2²⁴] after defaults,
	// under every measure: every engine it builds writes a snapshot
	// its loaders accept.
	MinHashes int
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

// withDefaults normalizes the runtime knobs and fills the hashing
// defaults. Engine construction and Index.SetRuntime both go through
// it, so a loaded snapshot normalizes exactly like a fresh engine.
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

// checkBudgets refuses a signature budget outside [1,
// maxSnapshotHashes]. NewEngine and readMeta share it, so an engine
// exists for exactly the budgets a snapshot may carry.
func (c EngineConfig) checkBudgets() error {
	if c.SignatureBits < 1 || c.SignatureBits > maxSnapshotHashes ||
		c.MinHashes < 1 || c.MinHashes > maxSnapshotHashes {
		return fmt.Errorf("signature budgets %d/%d out of range [1, %d]",
			c.SignatureBits, c.MinHashes, maxSnapshotHashes)
	}
	return nil
}

// Engine runs search pipelines over one dataset and one measure,
// computing and caching hash signatures on first use.
//
// An engine has one signature kind, picked from its measure
// (sigKind): hyperplane bits under Cosine and BinaryCosine, minhashes
// under Jaccard. Each search runs one pipeline, an Algorithm taken
// apart into a candidate generator and a verifier (pipeline).
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
	work    *vector.Collection // the dataset, binarized and normalized under a binary measure
	measure Measure
	binary  bool // the measure ignores weights (see newSigKind)
	cfg     EngineConfig

	sigs sigKind // the measure's signature kind and its store
	pln  *planner.Planner
	// bands is shared by the engine's shallow copies, which band the
	// same signatures.
	bands *bandCache
}

// bandKey identifies the bandings that share band tables: the same
// band width and the same probing.
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
// internally. A nil or empty dataset returns ErrEmptyDataset, and a
// signature budget outside [1, 2²⁴] an error.
func NewEngine(ds *Dataset, m Measure, cfg EngineConfig) (*Engine, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, ErrEmptyDataset
	}
	e := &Engine{ds: ds, work: ds.c, measure: m, cfg: cfg.withDefaults(), bands: &bandCache{kept: map[bandKey]*lshindex.Banding{}}}
	if err := e.cfg.checkBudgets(); err != nil {
		return nil, fmt.Errorf("bayeslsh: %w", err)
	}
	var err error
	if e.sigs, e.binary, err = newSigKind(m, e); err != nil {
		return nil, err
	}
	if e.binary {
		e.work = ds.c.Binarize().Normalize()
	}
	return e, nil
}

// Measure returns the engine's similarity measure.
func (e *Engine) Measure() Measure { return e.measure }

// workers returns the effective worker count of the sharded pipeline
// (1 means fully sequential).
func (e *Engine) workers() int { return e.cfg.Parallelism }

// exactSim returns the exact similarity of a pair under the engine's
// measure, evaluated on the original dataset.
func (e *Engine) exactSim(a, b int32) float64 {
	return toExactMeasure(e.measure).Sim(e.ds.c.Vecs[a], e.ds.c.Vecs[b])
}

// lshShape computes the banding shape for the options' threshold — l
// tables of BandK hashes, l = ⌈log ε / log(1−p^k)⌉ or its multi-probe
// variant, clamped to the signature budget — and the miss probability
// at the threshold those l tables give.
func (e *Engine) lshShape(o Options) (bandK, l int, miss float64) {
	p, budget := e.sigs.collisionProb(o.Threshold), e.sigs.budget()/o.BandK
	if e.sigs.multiProbe(o) {
		l = min(lshindex.NumTablesMultiProbe(p, o.BandK, o.FalseNegativeRate), budget)
		return o.BandK, l, lshindex.MissRateMultiProbe(p, o.BandK, l)
	}
	l = min(lshindex.NumTables(p, o.BandK, o.FalseNegativeRate), budget)
	return o.BandK, l, lshindex.MissRate(p, o.BandK, l)
}

// lshPlan computes the banding shape (lshShape) and fills every corpus
// signature deep enough to band it, polling ctx between vectors. Batch
// candidate generation and index building share this one plan, so an
// index probes exactly the tables the batch scan enumerates.
func (e *Engine) lshPlan(ctx context.Context, o Options) (bandK, l int, err error) {
	k, l, _ := e.lshShape(o)
	if err := e.sigs.sigStore().EnsureAllCtx(ctx, k*l, e.workers()); err != nil {
		return 0, 0, err
	}
	return k, l, nil
}

// lshBanding runs banded LSH's band phase at the options' threshold
// (lshPlan), or serves it from the engine's kept banding (see Engine)
// when that is wide enough. With keep, a banding built here is kept if
// it is the widest for its key; a canceled band phase keeps nothing.
func (e *Engine) lshBanding(ctx context.Context, o Options, keep bool) (*lshindex.Banding, error) {
	k, l, err := e.lshPlan(ctx, o)
	if err != nil {
		return nil, err
	}
	key := bandKey{k: k, multiProbe: e.sigs.multiProbe(o)}
	if b := e.bands.get(key, l); b != nil {
		return b, nil
	}
	b, err := e.sigs.band(ctx, k, l, key.multiProbe, e.workers())
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
// order: the band phase (lshBanding), then a row phase that collects
// the pairs.
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
// hyperplane bit set, every minhash Empty — so an estimating pipeline
// would report two of them as a similarity-1 pair. The query path
// drops them the same way (cut.mask). Corpora without empty vectors
// get their rows back untouched.
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

// hashElapsed is the hashing time the engine's store has spent so far.
func (e *Engine) hashElapsed() time.Duration {
	if !e.sigs.built() {
		return 0
	}
	return e.sigs.sigStore().Elapsed()
}

// needsPrior reports whether o's verifier prunes with a Jaccard Beta
// prior fitted from the candidate set (§4.1), so that its pipeline
// must materialize its candidates before verifying any.
func (e *Engine) needsPrior(o Options) bool {
	p, _ := o.Algorithm.pipeline()
	return p.ver.bayes() && e.sigs.prior(o)
}

// fitPrior learns the Jaccard Beta prior from the candidates, as §4.1
// prescribes; a verifier that takes none gets the uniform placeholder.
func (e *Engine) fitPrior(o Options, cands []pair.Pair) stats.Beta {
	if !e.needsPrior(o) {
		return stats.Beta{Alpha: 1, Beta: 1}
	}
	return core.FitJaccardPrior(e.work, cands, o.PriorSample, rng.Derive(e.cfg.Seed, 3))
}

// verifyDepth is the one depth rule of verification: the number of
// hashes o's verifier reads (verifier.hashes), in the engine's
// signature kind, clamped to the signature budget. A v3 snapshot
// persists at least this depth, and opening one checks it does.
func (e *Engine) verifyDepth(o Options) int {
	p, _ := o.Algorithm.pipeline()
	if n := p.ver.hashes(o); n > 0 {
		return min(n, e.sigs.budget())
	}
	return 0
}

// bayesVerifier constructs the verifier over the engine's corpus for
// an already-determined prior — shared by fresh builds (which fit the
// prior), snapshot loads (which restore it verbatim), live prior
// refits and the batch join.
func (e *Engine) bayesVerifier(ctx context.Context, o Options, prior stats.Beta) (core.QueryVerifier, error) {
	return e.sigs.corpusVerifier(ctx, o, prior, core.Params{
		Threshold: o.Threshold, Epsilon: o.Epsilon, Delta: o.Delta, Gamma: o.Gamma, K: o.K,
		MaxHashes: e.verifyDepth(o),
	}, e.workers())
}
