package bayeslsh

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"bayeslsh/internal/allpairs"
	"bayeslsh/internal/core"
	"bayeslsh/internal/live"
	"bayeslsh/internal/shard"
	"bayeslsh/internal/stats"
	"bayeslsh/internal/vector"
)

// LiveIndex is the ingest-while-serving form of Index: it answers the
// same Query, TopK and QueryBatch calls (plus their Context forms)
// while Add and Delete mutate the corpus, with no downtime and no
// full rebuild on the caller's critical path. Build one with
// NewLiveIndex over a seed corpus, or wrap a prebuilt or
// snapshot-loaded Index with LiveFrom.
//
// Architecture (see docs/LIVE.md): an LSM-style generation list. The
// current generation pairs an immutable base segment — an ordinary
// Index — with a small mutable delta segment (the memtable) that
// receives new vectors, hashes them against the same seeded families,
// and maintains its own LSH buckets or AllPairs postings. Deletes set
// bits in a shared monotone tombstone set that masks both segments.
// A background merge folds the delta and the tombstoned vectors into
// a fresh base (built by the exact offline BuildIndex code path, with
// signatures adopted rather than re-hashed) and publishes it by an
// atomic epoch swap: in-flight queries finish on the generation they
// pinned, and the query hot path takes no lock beyond one atomic
// pointer load plus a read-lock on the delta tables. Queries run the
// same loop as Index queries, over the pinned generation as a
// two-segment cut (base, then delta) with deleted ids masked and
// base rows mapped to external ids.
//
// Determinism contract: after any interleaving of Add, Delete and
// merges, query results are bit-identical to a cold Index built with
// the same EngineConfig and Options over the equivalent corpus — the
// live vectors in ingestion order, compacted (ids map through the
// compaction; similarities match to the last bit). The one
// corpus-global quantity the contract forces the live index to
// maintain is the Jaccard Beta prior of the full-BayesLSH pipelines,
// which is refit through the cold-build code path on every mutation;
// see the Add documentation for the cost.
//
// A LiveIndex is safe for concurrent use: any number of queries may
// overlap each other, mutations, and merges. Mutations serialize among
// themselves. A query overlapping a mutation observes the corpus
// either before or after it — both valid linearizations.
type LiveIndex struct {
	measure Measure
	cfg     EngineConfig
	opts    Options // resolved
	policy  live.Policy
	dim     int // declared feature-space dimensionality, fixed for life
	// priorBearing reports whether the built pipeline's verification
	// depends on the corpus-fitted Jaccard Beta prior — the one
	// corpus-global quantity mutations must keep in sync (see Add).
	priorBearing bool

	// gen is the current generation; queries pin it with one atomic
	// load. tombs is shared by all generations: bits are only ever set
	// and ids never reused, so reading it live is a valid linearization
	// for any pinned generation. The prior-bearing pipelines instead
	// read the generation-pinned liveGen.dead set, so a delete's mask
	// and its refit prior publish atomically.
	gen   atomic.Pointer[liveGen]
	tombs *live.Tombstones

	// mu serializes mutations (Add, Delete, merge publish, snapshot
	// cuts). Queries never take it.
	mu        sync.Mutex
	dead      int // live-present tombstoned vectors
	liveCount int // vectors neither deleted nor compacted away
	closed    bool

	merger *shard.Coalescer

	// dvq caches the delta segment's Bayes verifier; see deltaVerifier.
	dvq atomic.Pointer[deltaVQCache]

	merges    atomic.Int64
	lastMerge atomic.Int64          // wall-clock ns of the last completed merge
	mergeErr  atomic.Pointer[error] // last merge failure; nil after a success
}

// liveGen is one immutable generation: everything a query needs,
// published as a unit. Mutations and merges copy-and-swap it; the
// memtable pointer is shared across copies (it is append-only, and
// memN bounds what each generation sees).
type liveGen struct {
	// epoch increments whenever per-candidate verification decisions
	// may change — a prior refit or a merge — and keys the delta
	// verifier cache.
	epoch   uint64
	base    *Index
	baseIDs []int // base row -> external id, strictly increasing
	mem     *live.Memtable
	start   int // external id of memtable slot 0
	memN    int // visible memtable prefix
	prior   stats.Beta

	// dead is the generation-pinned deletion mask of the prior-bearing
	// pipelines (nil otherwise). It is copy-on-write: Delete publishes a
	// new map together with the refit prior.
	dead map[int]struct{}
}

// deleted reports whether external id ext is masked for queries
// pinned to this generation.
func (g *liveGen) deleted(tombs *live.Tombstones, ext int) bool {
	if g.dead != nil {
		_, ok := g.dead[ext]
		return ok
	}
	return tombs.Has(ext)
}

// nextID returns the external id the next Add will receive.
func (g *liveGen) nextID() int { return g.start + g.memN }

// LiveConfig sets the merge policy knobs of a live index; the zero
// value selects the defaults (see docs/TUNING.md).
type LiveConfig struct {
	// MaxDelta triggers a background merge once the delta segment
	// holds this many vectors. 0 selects the default 4096; negative
	// disables the size trigger.
	MaxDelta int
	// MaxRatio triggers a background merge once delta vectors plus
	// live tombstones exceed this fraction of the base size. 0 selects
	// the default 0.25; negative disables the ratio trigger.
	MaxRatio float64
}

// ErrLiveClosed reports a mutation against a closed live index.
// Queries keep working after Close; only Add and Delete are refused.
var ErrLiveClosed = errors.New("bayeslsh: live index is closed")

// ErrVecOutOfRange reports an Add whose vector has a feature index at
// or beyond the index's declared feature-space dimensionality — the
// same contract Dataset construction declares via NewDataset(dim).
var ErrVecOutOfRange = errors.New("bayeslsh: vector feature outside the index feature space")

// ErrVecNotNormalized reports an Add of a non-unit-norm or
// negatively-weighted vector into a cosine index whose AllPairs
// candidate structure requires unit-normalized, non-negative input —
// the same validation an offline AllPairs build applies, enforced at
// ingest so a background merge can never fail on a vector a query is
// already being served from.
var ErrVecNotNormalized = errors.New("bayeslsh: AllPairs cosine index requires unit-normalized, non-negatively weighted vectors")

// NewLiveIndex builds a live index: an offline base build over the
// seed dataset (exactly NewIndex), wrapped with an empty delta
// segment. The seed corpus must be non-empty (ErrEmptyDataset
// otherwise); its vectors receive external ids 0..ds.Len()-1 and
// every later Add continues the sequence. For Cosine the seed dataset
// and every added vector should be unit-normalized, the same contract
// as NewEngine.
func NewLiveIndex(ds *Dataset, m Measure, cfg EngineConfig, opts Options, lc LiveConfig) (*LiveIndex, error) {
	ix, err := NewIndex(ds, m, cfg, opts)
	if err != nil {
		return nil, err
	}
	return LiveFrom(ix, lc)
}

// LiveFrom wraps a prebuilt Index — fresh from BuildIndex or loaded
// from a snapshot — as the base segment of a new live index, without
// rebuilding anything. The Index must not be mutated through any
// other handle afterwards (its SetRuntime excepted, which is safe
// anywhere).
func LiveFrom(ix *Index, lc LiveConfig) (*LiveIndex, error) {
	if ix == nil {
		return nil, errors.New("bayeslsh: LiveFrom over a nil index")
	}
	ids := make([]int, ix.Len())
	for i := range ids {
		ids[i] = i
	}
	return newLiveOver(ix, lc, ids, ix.Len()), nil
}

// newLiveOver assembles a live index around a base: the shared
// constructor of NewLiveIndex/LiveFrom (identity ids) and the
// snapshot loader (persisted ids). The caller finishes initialization
// (memtable replay, tombstones) before sharing the index.
func newLiveOver(ix *Index, lc LiveConfig, baseIDs []int, start int) *LiveIndex {
	e := ix.engine()
	li := &LiveIndex{
		measure:   e.measure,
		cfg:       e.cfg,
		opts:      ix.opts,
		policy:    live.Policy{MaxDelta: lc.MaxDelta, MaxRatio: lc.MaxRatio}.WithDefaults(),
		dim:       e.ds.c.Dim,
		tombs:     live.NewTombstones(),
		liveCount: len(baseIDs),
	}
	li.priorBearing = e.needsPrior(li.opts)
	gen := &liveGen{
		base:    ix,
		baseIDs: baseIDs,
		mem:     newMemtableFor(ix),
		start:   start,
		prior:   ix.prior,
	}
	if li.priorBearing {
		gen.dead = map[int]struct{}{}
	}
	li.gen.Store(gen)
	li.merger = shard.NewCoalescer(li.mergeRun)
	return li
}

// newMemtableFor creates a delta segment matching the base's generator:
// banded delta tables under the base tables' plan, an unfiltered delta
// posting index, or nothing (BruteForce).
func newMemtableFor(ix *Index) *live.Memtable {
	switch ix.pipe.gen {
	case genAllPairs:
		return live.NewMemtable(nil, nil, allpairs.NewDelta())
	case genLSH:
		return ix.engine().sigs.newDelta(ix.tables, ix.opts.MultiProbe)
	}
	return live.NewMemtable(nil, nil, nil)
}

// Measure returns the index's similarity measure.
func (li *LiveIndex) Measure() Measure { return li.measure }

// Threshold returns the similarity threshold the index serves at.
func (li *LiveIndex) Threshold() float64 { return li.opts.Threshold }

// Options returns the resolved search options.
func (li *LiveIndex) Options() Options { return li.opts }

// CorpusStats returns the planner's corpus statistics of the current
// base segment. A compaction rebuilds the base over the merged corpus,
// so the stats track the live corpus merge by merge.
func (li *LiveIndex) CorpusStats() CorpusStats { return li.gen.Load().base.CorpusStats() }

// Plan returns the base segment's pipeline decision (see Index.Plan).
func (li *LiveIndex) Plan() Plan { return li.gen.Load().base.Plan() }

// Dim returns the feature-space dimensionality the index was built
// over — the exclusive upper bound Add enforces on ingest features.
func (li *LiveIndex) Dim() int { return li.dim }

// Len returns the number of live vectors: ingested and not deleted.
func (li *LiveIndex) Len() int {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.liveCount
}

// LiveStats reports the segment shape and merge history.
type LiveStats struct {
	// Base and Delta are the vector counts of the two segments
	// (including tombstoned vectors not yet compacted away).
	Base, Delta int
	// Live is the number of servable vectors; Dead the number of
	// tombstoned vectors still occupying segment slots.
	Live, Dead int
	// NextID is the external id the next Add will return.
	NextID int
	// Merges counts completed background merges; LastMerge is the
	// wall-clock duration of the most recent one.
	Merges    int64
	LastMerge time.Duration
	// LastMergeErr is the failure of the most recent merge attempt,
	// nil after a success. A failed merge leaves the index serving its
	// previous generation — correct but uncompacted — and is retried
	// on the next policy trigger or Compact.
	LastMergeErr error
}

// Stats returns a consistent snapshot of the index shape.
func (li *LiveIndex) Stats() LiveStats {
	li.mu.Lock()
	gen := li.gen.Load()
	st := LiveStats{
		Base:   len(gen.baseIDs),
		Delta:  gen.memN,
		Live:   li.liveCount,
		Dead:   li.dead,
		NextID: gen.nextID(),
	}
	li.mu.Unlock()
	st.Merges = li.merges.Load()
	st.LastMerge = time.Duration(li.lastMerge.Load())
	if p := li.mergeErr.Load(); p != nil {
		st.LastMergeErr = *p
	}
	return st
}

// SetRuntime sets the runtime knobs — EngineConfig.Parallelism and
// BatchSize — under the Index.SetRuntime contract: safe against
// concurrent queries, results unchanged at every setting. The knobs
// also carry over to the engines future merges build.
func (li *LiveIndex) SetRuntime(parallelism, batchSize int) {
	li.mu.Lock()
	defer li.mu.Unlock()
	li.cfg.Parallelism = parallelism
	li.cfg.BatchSize = batchSize
	li.cfg = li.cfg.withDefaults()
	li.gen.Load().base.SetRuntime(parallelism, batchSize)
}

// Close stops the background merger, canceling any merge in flight
// and waiting for it to exit. Mutations after Close return
// ErrLiveClosed; queries keep serving the last published generation.
// Close is idempotent.
func (li *LiveIndex) Close() {
	li.mu.Lock()
	li.closed = true
	li.mu.Unlock()
	li.merger.Close()
}

// Compact runs a merge now and waits for it: the delta segment and
// every tombstoned vector are folded into a fresh base. A no-op when
// there is nothing to fold or the index is closed. Compact does not
// block queries or mutations (beyond the brief publish step) — it
// blocks only its caller. A non-nil error reports that the merge
// failed and the index is still serving its previous (uncompacted but
// correct) generation.
func (li *LiveIndex) Compact() error {
	li.mu.Lock()
	closed := li.closed
	li.mu.Unlock()
	if closed {
		return nil
	}
	li.merger.Trigger()
	li.merger.Quiesce()
	if p := li.mergeErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Add ingests a vector, returning its permanent external id. The
// vector becomes visible to queries that start after Add returns; it
// is hashed once, at ingest, against the same seeded families as the
// base corpus, so results involving it are bit-identical to a cold
// build. Features must lie inside the feature space declared by the
// seed dataset (ErrVecOutOfRange otherwise — the same bound
// Dataset/NewDataset declares).
//
// Cost: hashing the one vector to the depths the built pipeline
// compares, plus an O(delta) structure insert — except under the
// full-BayesLSH Jaccard pipelines, whose corpus-wide Beta prior (§4.1
// of the paper) the determinism contract forces to be refit on every
// mutation: there each Add or Delete additionally pays one
// candidate-generation pass over the corpus (signatures are adopted,
// not re-hashed). Batch mutations or choose OneBitMinhash, the Lite
// cosine pipelines, or a non-Bayes pipeline when sustained ingest
// matters; see docs/LIVE.md.
func (li *LiveIndex) Add(q Vec) (int, error) {
	li.mu.Lock()
	defer li.mu.Unlock()
	if li.closed {
		return 0, ErrLiveClosed
	}
	gen := li.gen.Load()
	if err := gen.base.admit(q); err != nil {
		return 0, err
	}
	ent := li.prepareEntry(gen.base, q)

	ng := *gen
	ng.memN = gen.memN + 1
	if li.priorBearing {
		// Refit before appending so a (theoretical) failure leaves the
		// index exactly as it was.
		view := gen.mem.View(gen.memN)
		src := li.collect(gen, -1, view)
		prior, err := li.coldPrior(gen, src, view, &ent)
		if err != nil {
			return 0, err
		}
		if err := li.applyPrior(&ng, prior); err != nil {
			return 0, err
		}
	}
	slot := gen.mem.Append(ent)
	id := gen.start + slot
	li.liveCount++
	li.gen.Store(&ng)
	li.maybeMerge(&ng)
	return id, nil
}

// Delete removes the vector with the given external id from every
// future query's view, reporting whether it was present (false for
// ids never issued or already deleted). The vector's segment slot is
// reclaimed by the next merge; until then a tombstone masks it.
// Delete shares Add's prior-refit cost under the full-BayesLSH
// Jaccard pipelines.
func (li *LiveIndex) Delete(id int) bool {
	li.mu.Lock()
	defer li.mu.Unlock()
	if li.closed {
		return false
	}
	gen := li.gen.Load()
	if id < 0 || id >= gen.nextID() || li.tombs.Has(id) {
		return false
	}
	ng := gen
	if li.priorBearing {
		// The mask and the refit prior must become visible as one
		// generation: a query pinning either side of the swap sees a
		// consistent (corpus, prior) pair — before-delete or
		// after-delete, never a mix.
		cp := *gen
		cp.dead = make(map[int]struct{}, len(gen.dead)+1)
		for k := range gen.dead {
			cp.dead[k] = struct{}{}
		}
		cp.dead[id] = struct{}{}
		if li.liveCount > 1 {
			view := gen.mem.View(gen.memN)
			prior, err := li.coldPrior(gen, li.collect(gen, id, view), view, nil)
			if err != nil || li.applyPrior(&cp, prior) != nil {
				return false
			}
		}
		ng = &cp
	}
	li.tombs.Set(id)
	li.dead++
	li.liveCount--
	if ng != gen {
		li.gen.Store(ng)
	}
	li.maybeMerge(ng)
	return true
}

// admit checks that q may join the corpus of a live index over ix —
// the admission rule of Add and of a version-2 load's delta vectors:
// features inside the feature space (ErrVecOutOfRange) and, under a
// cosine AllPairs index, unit norm and non-negative weights
// (ErrVecNotNormalized), which keeps every ingested vector mergeable.
func (ix *Index) admit(q Vec) error {
	if q.Len() == 0 {
		return nil
	}
	e := ix.engine()
	if dim := e.ds.c.Dim; uint64(q.v.Ind[q.Len()-1]) >= uint64(dim) {
		return fmt.Errorf("%w: feature %d, feature space [0, %d)",
			ErrVecOutOfRange, q.v.Ind[q.Len()-1], dim)
	}
	if e.binary || ix.ap == nil {
		return nil
	}
	if n := q.v.Norm(); math.Abs(n-1) > 1e-6 {
		return fmt.Errorf("%w (norm %v)", ErrVecNotNormalized, n)
	}
	for _, w := range q.v.Val {
		if w < 0 {
			return fmt.Errorf("%w (negative weight)", ErrVecNotNormalized)
		}
	}
	return nil
}

// maybeMerge schedules a background merge when the policy says the
// delta or tombstone shadow has grown past its bounds. Called under
// mu; Trigger never blocks.
func (li *LiveIndex) maybeMerge(gen *liveGen) {
	if li.policy.Due(len(gen.baseIDs), gen.memN, li.dead) {
		li.merger.Trigger()
	}
}

// prepareEntry builds a memtable entry for q: the work representation
// the measure indexes and the signature prefix the built pipeline
// compares, hashed like the base corpus.
func (li *LiveIndex) prepareEntry(ix *Index, q Vec) live.Entry {
	e := ix.engine()
	ent := live.Entry{Raw: q.v, Work: q.v}
	if e.binary {
		ent.Work = q.v.Binarize().Normalize()
	}
	if n := max(ix.band, ix.verify); n > 0 {
		e.sigs.entry(&ent, n, ix.packOneBit)
	}
	return ent
}

// compactSrc is a consistent cut of the live corpus in compacted
// (external-id) order: for each surviving vector, its raw form and
// where it came from — a base row or a memtable slot.
type compactSrc struct {
	vecs     []vector.Vector
	baseRows []int32 // source base row, -1 when from the memtable
	memSlots []int32 // source memtable slot, -1 when from the base
	extIDs   []int   // external id, strictly increasing
}

// collect enumerates the live vectors of a generation (skipping the
// external id skip, -1 for none) in external-id order. Called under
// mu, or from the merge worker against an immutable cut.
func (li *LiveIndex) collect(gen *liveGen, skip int, view live.View) compactSrc {
	var src compactSrc
	vecs := gen.base.engine().ds.c.Vecs
	for row, ext := range gen.baseIDs {
		if ext != skip && !li.tombs.Has(ext) {
			src.vecs = append(src.vecs, vecs[row])
			src.baseRows = append(src.baseRows, int32(row))
			src.memSlots = append(src.memSlots, -1)
			src.extIDs = append(src.extIDs, ext)
		}
	}
	for slot := 0; slot < len(view.Raw); slot++ {
		ext := gen.start + slot
		if ext != skip && !li.tombs.Has(ext) {
			src.vecs = append(src.vecs, view.Raw[slot])
			src.baseRows = append(src.baseRows, -1)
			src.memSlots = append(src.memSlots, int32(slot))
			src.extIDs = append(src.extIDs, ext)
		}
	}
	return src
}

// compactEngine builds an engine over the compacted corpus that
// adopts every signature prefix the base store and the memtable
// already hold (sigKind.adopt), so nothing is hashed twice, and hashes
// with the shared family the outgoing base holds too (newIndexEngine),
// so no projection row is generated twice either. It answers exactly
// as a cold NewEngine over the equivalent corpus would.
func (li *LiveIndex) compactEngine(cfg EngineConfig, gen *liveGen, src compactSrc, view live.View, extra *live.Entry) (*Engine, error) {
	// A disk-backed base's mapped bytes are aliased and adopted below,
	// so every persisted section must be verified first.
	if err := gen.base.readyAll(); err != nil {
		return nil, err
	}
	vecs, ex := src.vecs, live.Entry{}
	if extra != nil {
		vecs, ex = append(vecs[:len(vecs):len(vecs)], extra.Raw), *extra
	}
	ds := &Dataset{c: &vector.Collection{Dim: li.dim, Vecs: vecs}}
	e2, err := newIndexEngine(ds, li.measure, cfg)
	if err != nil {
		return nil, err
	}
	e2.sigs.adopt(gen.base.engine().sigs, src, view, ex)
	return e2, nil
}

// coldPrior computes the Jaccard Beta prior a cold build over the
// generation's live corpus (plus extra, the vector an Add is about to
// ingest) would fit, through the same candidate enumeration.
func (li *LiveIndex) coldPrior(gen *liveGen, src compactSrc, view live.View, extra *live.Entry) (stats.Beta, error) {
	// Called under mu, so reading li.cfg here is race-free.
	e2, err := li.compactEngine(li.cfg, gen, src, view, extra)
	if err != nil {
		return stats.Beta{}, err
	}
	cands, err := e2.candidates(context.Background(), li.opts, false)
	if err != nil {
		return stats.Beta{}, err
	}
	return e2.fitPrior(li.opts, cands), nil
}

// applyPrior installs a changed refit prior into the pending
// generation: a base view that prunes with it, and a bumped epoch so
// the delta verifier is rebuilt to match.
func (li *LiveIndex) applyPrior(ng *liveGen, prior stats.Beta) error {
	if prior == ng.prior {
		return nil
	}
	base, err := ng.base.withPrior(context.Background(), prior)
	if err != nil {
		return err
	}
	ng.base = base
	ng.prior = prior
	ng.epoch++
	return nil
}

// withPrior returns a view of the index that verifies under prior p,
// sharing everything else, wired afresh (Index.wire). The atomic
// engine pointer rules out a struct copy, so a field added to Index
// that wire does not derive must be added here too.
func (ix *Index) withPrior(ctx context.Context, p stats.Beta) (*Index, error) {
	n := &Index{
		opts:   ix.opts,
		tables: ix.tables,
		ap:     ix.ap,
		disk:   ix.disk,
		prior:  p,
		stats:  ix.stats,
		cstats: ix.cstats,
		plan:   ix.plan,
	}
	n.eng.Store(ix.engine())
	if err := n.wire(ctx); err != nil {
		return nil, err
	}
	return n, nil
}

// deltaVQCache is one constructed delta-segment verifier, valid for
// any generation on the same memtable and epoch whose visible prefix
// it covers (per-candidate decisions read only that candidate's
// signatures, so a verifier over a longer prefix serves older
// generations unchanged).
type deltaVQCache struct {
	mem   *live.Memtable
	epoch uint64
	n     int
	vq    core.QueryVerifier
}

// deltaVerifier returns the Bayes verifier for the generation's delta
// segment (nil when the pipeline verifies without one or the delta is
// empty), constructing it on first use per (memtable, epoch) and
// growing it as the visible prefix advances. It takes the base
// verifier's params and prior, so its decision tables are the base's
// own, interned; racing constructions build identical verifiers.
func (li *LiveIndex) deltaVerifier(gen *liveGen) (core.QueryVerifier, error) {
	if gen.base.vq == nil || gen.memN == 0 {
		return nil, nil
	}
	if c := li.dvq.Load(); c != nil && c.mem == gen.mem && c.epoch == gen.epoch && c.n >= gen.memN {
		return c.vq, nil
	}
	params := gen.base.vq.Params()
	params.Ensure = nil // delta signatures are hashed eagerly at ingest
	vq, err := gen.base.engine().sigs.verifier(gen.mem.View(gen.memN), li.opts, gen.prior, params)
	if err != nil {
		return nil, err
	}
	if li.gen.Load().mem == gen.mem {
		// Cache only for the current memtable: a query still pinned to
		// a pre-merge generation must not re-pin the retired segment's
		// memory past its own lifetime. A merge can still race between
		// the check and the store, so re-check afterwards and retract
		// our own entry (and only ours) if it lost.
		c := &deltaVQCache{mem: gen.mem, epoch: gen.epoch, n: gen.memN, vq: vq}
		li.dvq.Store(c)
		if li.gen.Load().mem != gen.mem {
			li.dvq.CompareAndSwap(c, nil)
		}
	}
	return vq, nil
}

// cut pins the current generation for one query call.
func (li *LiveIndex) cut() cut {
	gen := li.gen.Load()
	return cut{ix: gen.base, li: li, gen: gen}
}

// Query returns the live vectors similar to q at the index's
// threshold (or opts.Threshold, if higher), in ascending external-id
// order — bit-identical, modulo the id map, to a cold Index over the
// equivalent corpus. Query is QueryContext with context.Background().
func (li *LiveIndex) Query(q Vec, opts QueryOptions) ([]Match, error) {
	return li.QueryContext(context.Background(), q, opts)
}

// QueryContext is Query with cooperative cancellation, under the
// Index.QueryContext contract.
func (li *LiveIndex) QueryContext(ctx context.Context, q Vec, opts QueryOptions) ([]Match, error) {
	return li.cut().query(ctx, q, opts)
}

// TopK returns the k live vectors most similar to q among the index's
// candidates, under the Index.TopK contract (exact similarities,
// candidates at the built threshold, k clamped to the corpus size).
func (li *LiveIndex) TopK(q Vec, k int) ([]Match, error) {
	return li.TopKContext(context.Background(), q, k)
}

// TopKContext is TopK with cooperative cancellation.
func (li *LiveIndex) TopKContext(ctx context.Context, q Vec, k int) ([]Match, error) {
	return li.cut().topK(ctx, q, k)
}

// QueryBatch answers many queries over one consistent generation,
// sharded over the runtime's worker count. Result i corresponds to
// queries[i]; every batch pins a single generation, so all its
// queries see the same corpus cut. (Under the pipelines without a
// corpus-global prior, deletes mask through the shared tombstone set
// rather than republishing, so a delete landing mid-batch linearizes
// per query; the prior-bearing pipelines republish on every mutation
// and their batches are fully pinned.)
func (li *LiveIndex) QueryBatch(queries []Vec, opts QueryOptions) ([][]Match, error) {
	return li.QueryBatchContext(context.Background(), queries, opts)
}

// QueryBatchContext is QueryBatch with cooperative cancellation,
// under the Index.QueryBatchContext contract (all-or-nothing).
func (li *LiveIndex) QueryBatchContext(ctx context.Context, queries []Vec, opts QueryOptions) ([][]Match, error) {
	return li.cut().queryBatch(ctx, queries, opts)
}

// mergeRun is the background merge: cut the current generation, build
// a fresh base over the compacted corpus through BuildIndex's path
// (signatures adopted, prior carried over), and publish it by atomic
// swap. Mutations block only during the publish. Close cancels ctx.
func (li *LiveIndex) mergeRun(ctx context.Context) {
	start := time.Now()

	li.mu.Lock()
	if li.closed {
		li.mu.Unlock()
		return
	}
	gen := li.gen.Load()
	n := gen.memN
	if n == 0 && li.dead == 0 {
		// Healthy no-op: nothing to fold. Clear any stale failure so
		// Compact on a quiescent index reports success.
		li.mergeErr.Store(nil)
		li.mu.Unlock()
		return
	}
	view := gen.mem.View(n)
	src := li.collect(gen, -1, view)
	deadCut := len(gen.baseIDs) + n - len(src.vecs)
	cutPrior := gen.prior
	cfg := li.cfg
	li.mu.Unlock()

	if len(src.vecs) == 0 {
		// Every vector is deleted; there is no corpus to rebuild over.
		// Queries already serve empty results through the deletion
		// mask, so leave the segments for a future merge to reclaim.
		li.mergeErr.Store(nil)
		return
	}

	e2, err := li.compactEngine(cfg, gen, src, view, nil)
	if err != nil {
		li.mergeErr.Store(&err)
		return
	}
	var pb *stats.Beta
	if li.priorBearing {
		// The maintained prior is, by the mutation-time refit, exactly
		// the cold prior of the cut corpus; passing it skips the
		// build's candidate re-enumeration.
		pb = &cutPrior
	}
	nb, err := e2.buildIndexCtx(ctx, li.opts, pb)
	if err != nil {
		// State unchanged — the previous generation keeps serving. A
		// cancellation is Close shutting the index down, not a merge
		// failure; only genuine failures are reported.
		if ctx.Err() == nil {
			li.mergeErr.Store(&err)
		}
		return
	}
	var present map[int]struct{}
	if li.priorBearing {
		// Prebuilt outside the publish lock for the dead-mask rebuild.
		present = make(map[int]struct{}, len(src.extIDs))
		for _, ext := range src.extIDs {
			present[ext] = struct{}{}
		}
	}

	li.mu.Lock()
	if li.closed {
		li.mu.Unlock()
		return
	}
	cur := li.gen.Load()
	if li.priorBearing && cur.prior != cutPrior {
		// Mutations during the build moved the corpus prior; re-arm the
		// new base's verifier with the current one (cheap — no
		// enumeration, just the pruning-table construction). Runs under
		// the merge ctx so Close aborts the publish like any other
		// merge stage.
		nb, err = nb.withPrior(ctx, cur.prior)
		if err != nil {
			li.mu.Unlock()
			li.mergeErr.Store(&err)
			return
		}
	}
	fresh := newMemtableFor(nb)
	cv := cur.mem.View(cur.memN)
	for slot := n; slot < cur.memN; slot++ {
		fresh.Append(live.Entry{
			Raw: cv.Raw[slot], Work: cv.Work[slot],
			Min: cv.Min[slot], Bits: cv.Bits[slot], One: cv.One[slot],
		})
	}
	ng := &liveGen{
		epoch:   cur.epoch + 1,
		base:    nb,
		baseIDs: src.extIDs,
		mem:     fresh,
		start:   gen.start + n,
		memN:    cur.memN - n,
		prior:   cur.prior,
	}
	if cur.dead != nil {
		// Carry only the masks still shadowing a present vector: ids
		// compacted away by this merge need no mask (they are in no
		// segment), ids deleted during the merge keep theirs.
		nd := make(map[int]struct{}, len(cur.dead))
		for ext := range cur.dead {
			if _, ok := present[ext]; ok || ext >= ng.start {
				nd[ext] = struct{}{}
			}
		}
		ng.dead = nd
	}
	li.gen.Store(ng)
	// Drop the delta-verifier cache with the retired memtable so the
	// compacted segment's vectors and signatures become collectable.
	li.dvq.Store(nil)
	li.dead -= deadCut
	due := li.policy.Due(len(ng.baseIDs), ng.memN, li.dead)
	li.mu.Unlock()

	li.merges.Add(1)
	li.lastMerge.Store(int64(time.Since(start)))
	li.mergeErr.Store(nil)
	if due {
		li.merger.Trigger()
	}
}
